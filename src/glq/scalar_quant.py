"""Per-channel scalar codebooks: rounding, weighted k-means, exact 1-D DP.

A codebook is a small sorted value set (m <= 256). Rounding always
resolves distance ties toward the smaller codebook value, implemented as
first-occurrence argmin over the sorted values; every consumer in the
package rounds through the same helper so tie behavior is uniform.

``kmeans_pp_init`` and ``lloyd`` implement weighted k-means over
(value, weight) points, the sensitivity-weighted baseline for
quantizing one channel with diagonal-Fisher weights. Their per-cluster
sums group the points with one stable sort of the assignment (or one
``bincount``) rather than one boolean mask per cluster; both keep each
cluster's summands in index order, so the sums keep their bits.
``kmeans_pp_init`` seeds a whole column slice in one pass: channels
with equal distinct counts form one stack, and each draw is spelled out
as ``Generator.choice`` makes it, from the channel's own generator, so
the centers equal one run per channel. ``squeezellm_init`` is the one
squeezellm path: codebooks and assignments of a column slice as
arrays, with the SSE traces only when asked for; ``squeezellm_quantize``
wraps it into channel states for the baseline method.
``kmeans_1d_exact`` is the O(n^2 m) dynamic program over sorted points;
optimal 1-D clusters are contiguous in sorted order, so prefix sums of
(w, w x, w x^2) give each segment cost in O(1):

    cost(i..j) = sum w x^2 - (sum w x)^2 / sum w,  0 when sum w = 0.

The DP is the small-instance ground truth that Lloyd's descent is only
ever asked to approach from above.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidSize, TooFewDistinctPoints

MAX_CODEBOOK = 256
DEFAULT_LLOYD_ITERS = 50


@dataclass(frozen=True)
class Codebook:
    """Sorted (non-decreasing) value set, 1 <= m <= 256, finite."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise DimensionMismatch("codebook values must be 1-D")
        if not 1 <= v.shape[0] <= MAX_CODEBOOK:
            raise InvalidSize(f"codebook size {v.shape[0]} outside 1..{MAX_CODEBOOK}")
        if not np.all(np.isfinite(v)):
            raise ValueError("codebook values must be finite")
        if np.any(np.diff(v) < 0):
            raise ValueError("codebook values must be sorted ascending")
        object.__setattr__(self, "values", v)

    @property
    def m(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class Assignment:
    """Codebook slot index per weight (0-based)."""

    idx: np.ndarray

    def __post_init__(self) -> None:
        a = np.ascontiguousarray(self.idx, dtype=np.int64)
        if a.ndim != 1:
            raise DimensionMismatch("assignment must be 1-D")
        if a.size and (a.min() < 0 or a.max() >= MAX_CODEBOOK):
            raise InvalidSize("assignment index outside 0..255")
        object.__setattr__(self, "idx", a)


@dataclass(frozen=True)
class WeightedPoints:
    """Values with non-negative weights, not all zero."""

    x: np.ndarray
    wgt: np.ndarray

    def __post_init__(self) -> None:
        x = np.ascontiguousarray(self.x, dtype=np.float64)
        w = np.ascontiguousarray(self.wgt, dtype=np.float64)
        if x.ndim != 1 or w.ndim != 1 or x.shape != w.shape:
            raise DimensionMismatch("points and weights must be 1-D of equal length")
        if x.shape[0] == 0:
            raise InvalidSize("need at least one point")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(w))):
            raise ValueError("points and weights must be finite")
        if np.any(w < 0):
            raise ValueError("weights must be >= 0")
        if not np.any(w > 0):
            raise ValueError("weights must not all be zero")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "wgt", w)

    @property
    def n(self) -> int:
        return self.x.shape[0]


def round_rows(u: np.ndarray, codebooks: np.ndarray) -> np.ndarray:
    """Vectorized nearest-value rounding, one codebook row per entry of u.

    `codebooks` is c x m with each row sorted ascending, `u` has length
    c. A 1-D sorted codebook of length m is shared by every entry: it
    broadcasts against u[:, None] with the same elementwise arithmetic.
    First-occurrence argmin sends a tie to the smaller value, the rule
    of the scalar reference `oracle.round_to_codebook`.
    """
    return np.abs(codebooks - u[:, None]).argmin(axis=1)


def _distinct(pts: WeightedPoints) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values with aggregated weights, ascending. bincount adds
    each value's weights in index order, as np.add.at does."""
    vals, inv = np.unique(pts.x, return_inverse=True)
    return vals, np.bincount(inv, weights=pts.wgt, minlength=vals.shape[0])


def kmeans_pp_init(
    pts: WeightedPoints | Sequence[WeightedPoints], m: int, seed
) -> Codebook | np.ndarray:
    """Weighted k-means++ seeding over the distinct values, one channel
    or a stack of channels in one pass.

    `pts` is one WeightedPoints, or a sequence of them with `seed` a
    sequence of the same length. A seed is any SeedSequence entropy (int
    or tuple) or a Generator, which is drawn from in place; each channel
    draws from its own generator, so its centers depend only on its
    points and its seed. One WeightedPoints returns a Codebook, a
    sequence a c x m array of sorted rows.

    The first center is drawn proportional to aggregated weight; each
    later center proportional to weight times squared distance to the
    nearest chosen center. When every remaining candidate has zero
    sampling mass the draw falls back to uniform over the distinct
    values not yet chosen.

    Channels with the same number of distinct values run as one stack:
    row i holds channel i's sorted distinct values and their summed
    weights. Each draw is the one Generator.choice(n, p=mass/total)
    makes: cdf = p.cumsum(), cdf /= cdf[-1], and the index is the count
    of cdf <= rng.random(), with every total and cumsum taken along the
    last axis of the stack, the order a 1-D array sums in. A row whose
    total mass is zero or not finite takes that draw through
    Generator.choice itself, so it falls back or raises ValueError as a
    one-channel run does. Channels, their centers and their generators
    end in the state of one run per channel.

    Raises TooFewDistinctPoints when m exceeds a channel's distinct count.
    """
    if m < 1:
        raise InvalidSize(f"need m >= 1, got {m}")
    if isinstance(pts, WeightedPoints):
        return Codebook(values=kmeans_pp_init([pts], m, [seed])[0])
    if len(pts) != len(seed):
        raise DimensionMismatch(f"{len(seed)} seeds for {len(pts)} channels")
    rows = [_distinct(p) for p in pts]
    sizes = np.array([vals.shape[0] for vals, _ in rows], dtype=np.int64)
    if sizes.size and m > sizes.min():
        raise TooFewDistinctPoints(
            f"asked for {m} centers but only {sizes.min()} distinct values"
        )
    rngs = [np.random.default_rng(s) for s in seed]
    out = np.empty((len(rows), m))
    for n in np.unique(sizes):
        stack = np.flatnonzero(sizes == n)
        out[stack] = _kmeans_pp_stack(np.stack([rows[i][0] for i in stack]),
                                      np.stack([rows[i][1] for i in stack]),
                                      m, [rngs[i] for i in stack])
    return out


def _kmeans_pp_stack(vals: np.ndarray, wsum: np.ndarray, m: int, rngs: list) -> np.ndarray:
    """k-means++ over r channels of n distinct values each (r x n rows of
    sorted values and weights), one generator per row; r x m sorted
    centers."""
    r, n = vals.shape
    rows = np.arange(r)
    chosen = np.empty((r, m), dtype=np.int64)
    d2 = np.full((r, n), np.inf)
    for k in range(m):
        mass = wsum * d2 if k else wsum.copy()
        mass[rows[:, None], chosen[:, :k]] = 0.0
        total = mass.sum(axis=-1)
        drawn = (total > 0.0) & (total < np.inf)
        if drawn.any():
            cdf = (mass[drawn] / total[drawn, None]).cumsum(axis=-1)
            cdf /= cdf[:, -1:]
            u = np.array([rngs[i].random() for i in np.flatnonzero(drawn)])
            chosen[drawn, k] = (cdf <= u[:, None]).sum(axis=-1)
        for i in np.flatnonzero(~drawn):  # zero or non-finite mass: one row
            if total[i] > 0.0:
                chosen[i, k] = rngs[i].choice(n, p=mass[i] / total[i])
            else:
                chosen[i, k] = rngs[i].choice(np.setdiff1d(np.arange(n), chosen[i, :k]))
        d2 = np.minimum(d2, (vals - vals[rows, chosen[:, k], None]) ** 2)
    return np.sort(np.take_along_axis(vals, chosen, axis=1), axis=1)


def lloyd(
    pts: WeightedPoints,
    cb: Codebook,
    iters: int,
    trace: list[float] | None = None,
) -> tuple[Codebook, Assignment]:
    """Weighted Lloyd iterations from a starting codebook.

    Each iteration assigns every point to its nearest center (ties to
    the smaller value) and then moves each center to the weighted mean
    of its points; a center whose points carry zero total weight stays
    put. Centers are re-sorted after every update. The returned
    assignment is the nearest-center rule under the final codebook, so
    iters=0 just assigns against the input codebook. When `trace` is
    given the weighted SSE after every half-step is appended to it; the
    sequence never increases.

    An iteration is a pure function of the centers, so once one leaves
    them bitwise unchanged every later iteration would repeat it; the
    loop stops there. The trace still gets 2 * iters + 1 entries: the
    skipped half-steps are padded with the last SSE, the value they
    would have recomputed. Results equal running all `iters` bit for bit.

    The center update groups the points by cluster with one stable
    argsort of the assignment and sums each cluster's contiguous slice.
    A stable sort keeps each cluster's points in index order, so every
    slice holds the same summands in the same order as the mask
    compaction x[a == q]; numpy's pairwise sum over a contiguous 1-D
    array depends only on that sequence, so the centers keep their
    bits. np.add.reduceat over the segments is not a substitute: it
    does not follow that summation tree, and its sums differed from the
    masked ones on most random cases.
    """
    if iters < 0:
        raise InvalidSize(f"iters must be >= 0, got {iters}")
    centers = cb.values.copy()
    m = centers.shape[0]

    def _sse(c: np.ndarray, a: np.ndarray) -> float:
        r = pts.x - c[a]
        return float(np.sum(pts.wgt * r * r))

    wx = pts.wgt * pts.x
    for it in range(iters):
        before = centers.tobytes()  # bit patterns, so -0.0 != 0.0
        a = round_rows(pts.x, centers)
        if trace is not None:
            trace.append(_sse(centers, a))
        order = np.argsort(a, kind="stable")
        w_sorted, wx_sorted = pts.wgt[order], wx[order]
        s = 0  # cluster q is w_sorted[s:e]
        for q, e in enumerate(np.bincount(a, minlength=m).cumsum().tolist()):
            if e > s:
                tw = float(w_sorted[s:e].sum())
                if tw > 0.0:
                    centers[q] = float(wx_sorted[s:e].sum()) / tw
            s = e
        centers = np.sort(centers)
        if trace is not None:
            trace.append(_sse(centers, a))
        if centers.tobytes() == before:
            if trace is not None:
                trace.extend([trace[-1]] * (2 * (iters - it - 1)))
            break
    final = round_rows(pts.x, centers)
    if trace is not None:
        trace.append(_sse(centers, final))
    return Codebook(values=centers), Assignment(idx=final)


def _prefix_sums(x: np.ndarray, w: np.ndarray):
    return (
        np.concatenate([[0.0], np.cumsum(w)]),
        np.concatenate([[0.0], np.cumsum(w * x)]),
        np.concatenate([[0.0], np.cumsum(w * x * x)]),
    )


def kmeans_1d_exact(pts: WeightedPoints, m: int) -> tuple[Codebook, Assignment, float]:
    """Optimal weighted 1-D k-means by dynamic programming.

    Sorts the points, then solves the contiguous-segmentation DP with at
    most min(m, n) segments. Segment centers are weighted means (plain
    means for zero-weight segments, which cost nothing). Ties between
    split positions resolve to the smallest split so the result is
    deterministic. Returns the codebook (one entry per segment, sorted),
    the assignment in original point order, and the optimal objective.
    """
    if m < 1:
        raise InvalidSize(f"need m >= 1, got {m}")
    order = np.argsort(pts.x, kind="stable")
    x = pts.x[order]
    w = pts.wgt[order]
    n = x.shape[0]
    k = min(m, n)
    W, WX, WX2 = _prefix_sums(x, w)

    def cost(i: int, j: int) -> float:
        # inclusive [i, j] over sorted points
        sw = W[j + 1] - W[i]
        if sw <= 0.0:
            return 0.0
        sx = WX[j + 1] - WX[i]
        c = (WX2[j + 1] - WX2[i]) - sx * sx / sw
        return max(c, 0.0)

    INF = np.inf
    best = np.full((k + 1, n + 1), INF)
    split = np.zeros((k + 1, n + 1), dtype=np.int64)
    best[0, 0] = 0.0
    for q in range(1, k + 1):
        # segment q covers sorted positions i..j-1 for some i
        for j in range(q, n + 1):
            b, bi = INF, -1
            for i in range(q - 1, j):
                if best[q - 1, i] == INF:
                    continue
                c = best[q - 1, i] + cost(i, j - 1)
                if c < b:
                    b, bi = c, i
            best[q, j] = b
            split[q, j] = bi

    seg = np.zeros(n, dtype=np.int64)
    j = n
    bounds = []
    for q in range(k, 0, -1):
        i = int(split[q, j])
        bounds.append((i, j))
        j = i
    bounds.reverse()
    centers = np.zeros(k)
    for q, (i, j) in enumerate(bounds):
        seg[i:j] = q
        sw = W[j] - W[i]
        if sw > 0.0:
            centers[q] = (WX[j] - WX[i]) / sw
        else:
            centers[q] = float(np.mean(x[i:j]))
    assign = np.zeros(n, dtype=np.int64)
    assign[order] = seg
    return Codebook(values=centers), Assignment(idx=assign), float(best[k, n])


@dataclass
class ChannelQuantState:
    """Quantization state for one output channel."""

    codebook: Codebook
    assign: Assignment
    w_hat: np.ndarray
    objective_trace: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        expect = self.codebook.values[self.assign.idx]
        if self.w_hat.shape != expect.shape or not np.array_equal(self.w_hat, expect):
            raise ValueError("w_hat must equal codebook.values[assign.idx]")

    @staticmethod
    def from_parts(
        cb: Codebook, assign: Assignment, trace: list[float] | None = None
    ) -> "ChannelQuantState":
        return ChannelQuantState(
            codebook=cb,
            assign=assign,
            w_hat=cb.values[assign.idx],
            objective_trace=list(trace or []),
        )


@dataclass
class QuantizedLayer:
    """All channel states of one layer plus bookkeeping."""

    layer_idx: int
    bits: int
    channels: list[ChannelQuantState]

    @property
    def d_out(self) -> int:
        return len(self.channels)

    @property
    def W_hat(self) -> np.ndarray:
        return np.stack([c.w_hat for c in self.channels], axis=1)

    def codebook_matrix(self) -> np.ndarray:
        """d_out x m matrix of codebook rows (rows padded never; all
        channels of a layer share one m)."""
        return np.stack([c.codebook.values for c in self.channels], axis=0)

    def assign_matrix(self) -> np.ndarray:
        """d_in x d_out matrix of slot indices."""
        return np.stack([c.assign.idx for c in self.channels], axis=1)


def _pad_codebook(vals: np.ndarray, m: int) -> np.ndarray:
    """Pad a short sorted value list to m entries by repeating the last
    value; padded duplicates are unreachable under first-occurrence
    rounding."""
    if vals.shape[0] >= m:
        return vals
    return np.concatenate([vals, np.full(m - vals.shape[0], vals[-1])])


def rtn_quantize(W: np.ndarray, bits: int, layer_idx: int = 0) -> QuantizedLayer:
    """Round-to-nearest baseline: per channel, a uniform grid over
    [min, max] (or the distinct values themselves when they fit)."""
    W = np.asarray(W, dtype=np.float64)
    m = _codebook_size(bits)
    channels = []
    for j in range(W.shape[1]):
        col = W[:, j]
        distinct = np.unique(col)
        if distinct.shape[0] <= m:
            vals = _pad_codebook(distinct, m)
        else:
            vals = np.linspace(float(col.min()), float(col.max()), m)
        cb = Codebook(values=vals)
        idx = round_rows(col, cb.values)
        channels.append(ChannelQuantState.from_parts(cb, Assignment(idx=idx)))
    return QuantizedLayer(layer_idx=layer_idx, bits=bits, channels=channels)


def _codebook_size(bits: int) -> int:
    if not 1 <= bits <= 8:
        raise InvalidSize(f"bits must be in 1..8, got {bits}")
    return 2 ** bits


def squeezellm_init(
    W: np.ndarray,
    fisher_diag: np.ndarray,
    bits: int,
    seed: int,
    lloyd_iters: int = DEFAULT_LLOYD_ITERS,
    traces: list | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sensitivity-weighted k-means, one codebook per channel, as arrays.

    Channel j clusters the weights W[:, j] with diagonal-Fisher weights
    fisher_diag[:, j]: k-means++ seeding (per-channel substream
    (seed, j)), all clustered channels seeded in one `kmeans_pp_init`
    pass, then Lloyd refinement one channel at a time. A channel whose
    Fisher column is all zero falls back to uniform weights; a channel
    with fewer distinct values than codebook slots is represented
    exactly. Returns the codebooks (c x m, rows sorted) and the
    assignments (d x c). When `traces` is given, one list per channel is
    appended to it: Lloyd's weighted SSE trace, or [0.0] for an exact
    channel; without it no SSE is computed.
    """
    W = np.asarray(W, dtype=np.float64)
    F = np.asarray(fisher_diag, dtype=np.float64)
    if W.shape != F.shape:
        raise DimensionMismatch(f"weights {W.shape} vs fisher diag {F.shape}")
    m = _codebook_size(bits)
    d, c = W.shape
    C = np.empty((c, m))
    A = np.empty((d, c), dtype=np.int64)
    chan_traces = [[0.0] for _ in range(c)]
    clustered, pts = [], []
    for j in range(c):
        wgt = F[:, j]
        if not np.any(wgt > 0):
            wgt = np.ones(d)
        p = WeightedPoints(x=W[:, j], wgt=wgt)
        distinct = np.unique(p.x)
        if distinct.shape[0] <= m:
            C[j] = _pad_codebook(distinct, m)
            A[:, j] = round_rows(p.x, C[j])
        else:
            clustered.append(j)
            pts.append(p)
    inits = kmeans_pp_init(pts, m, [(seed, j) for j in clustered])
    for j, p, init in zip(clustered, pts, inits):
        tr = None if traces is None else []
        cb, assign = lloyd(p, Codebook(values=init), lloyd_iters, trace=tr)
        C[j], A[:, j], chan_traces[j] = cb.values, assign.idx, tr
    if traces is not None:
        traces.extend(chan_traces)
    return C, A


def squeezellm_quantize(
    W: np.ndarray,
    fisher_diag: np.ndarray,
    bits: int,
    seed: int,
    layer_idx: int = 0,
    lloyd_iters: int = DEFAULT_LLOYD_ITERS,
) -> QuantizedLayer:
    """The squeezellm baseline layer: `squeezellm_init`'s codebooks and
    assignments, one channel state each, carrying its SSE trace."""
    traces: list[list[float]] = []
    C, A = squeezellm_init(W, fisher_diag, bits, seed, lloyd_iters, traces)
    channels = [
        ChannelQuantState.from_parts(Codebook(values=C[j]), Assignment(idx=A[:, j]), tr)
        for j, tr in enumerate(traces)
    ]
    return QuantizedLayer(layer_idx=layer_idx, bits=bits, channels=channels)
