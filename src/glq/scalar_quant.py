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
``kmeans_1d_exact`` is the O(n^2 m) dynamic program over sorted points;
optimal 1-D clusters are contiguous in sorted order, so prefix sums of
(w, w x, w x^2) give each segment cost in O(1):

    cost(i..j) = sum w x^2 - (sum w x)^2 / sum w,  0 when sum w = 0.

The DP is the small-instance ground truth that Lloyd's descent is only
ever asked to approach from above.
"""

from __future__ import annotations

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


def nearest_assignment(pts: WeightedPoints, cb: Codebook) -> Assignment:
    return Assignment(idx=round_rows(pts.x, cb.values))


def _distinct(pts: WeightedPoints) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values with aggregated weights, ascending. bincount adds
    each value's weights in index order, as np.add.at does."""
    vals, inv = np.unique(pts.x, return_inverse=True)
    return vals, np.bincount(inv, weights=pts.wgt, minlength=vals.shape[0])


def kmeans_pp_init(pts: WeightedPoints, m: int, seed) -> Codebook:
    """Weighted k-means++ seeding over the distinct values.

    The first center is drawn proportional to aggregated weight; each
    later center proportional to weight times squared distance to the
    nearest chosen center. When every remaining candidate has zero
    sampling mass the draw falls back to uniform over the distinct
    values not yet chosen. `seed` is any SeedSequence entropy (int or
    tuple); the draw is deterministic given it.

    Raises TooFewDistinctPoints when m exceeds the distinct count.
    """
    if m < 1:
        raise InvalidSize(f"need m >= 1, got {m}")
    vals, wsum = _distinct(pts)
    if m > vals.shape[0]:
        raise TooFewDistinctPoints(
            f"asked for {m} centers but only {vals.shape[0]} distinct values"
        )
    rng = np.random.default_rng(seed)
    chosen: list[int] = []
    d2 = np.full(vals.shape[0], np.inf)
    for _ in range(m):
        if chosen:
            mass = wsum * d2
        else:
            mass = wsum.copy()
        mass[chosen] = 0.0
        total = float(np.sum(mass))
        if total > 0.0:
            pick = int(rng.choice(vals.shape[0], p=mass / total))
        else:
            cands = np.setdiff1d(np.arange(vals.shape[0]), np.array(chosen, dtype=int))
            pick = int(rng.choice(cands))
        chosen.append(pick)
        d2 = np.minimum(d2, (vals - vals[pick]) ** 2)
    return Codebook(values=np.sort(vals[np.array(chosen)]))


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


def squeezellm_quantize(
    W: np.ndarray,
    fisher_diag: np.ndarray,
    bits: int,
    seed: int,
    layer_idx: int = 0,
    lloyd_iters: int = DEFAULT_LLOYD_ITERS,
) -> QuantizedLayer:
    """Sensitivity-weighted k-means baseline, one codebook per channel.

    Channel j clusters the weights W[:, j] with diagonal-Fisher weights
    fisher_diag[:, j] using k-means++ seeding (per-channel substream
    (seed, j)) and Lloyd refinement. A channel whose Fisher column is
    all zero falls back to uniform weights; a channel with fewer
    distinct values than codebook slots is represented exactly.
    """
    W = np.asarray(W, dtype=np.float64)
    F = np.asarray(fisher_diag, dtype=np.float64)
    if W.shape != F.shape:
        raise DimensionMismatch(f"weights {W.shape} vs fisher diag {F.shape}")
    m = _codebook_size(bits)
    channels = []
    for j in range(W.shape[1]):
        col = W[:, j]
        wgt = F[:, j]
        if not np.any(wgt > 0):
            wgt = np.ones_like(col)
        pts = WeightedPoints(x=col, wgt=wgt)
        distinct = np.unique(col)
        if distinct.shape[0] <= m:
            cb = Codebook(values=_pad_codebook(distinct, m))
            assign = nearest_assignment(pts, cb)
            state = ChannelQuantState.from_parts(cb, assign, trace=[0.0])
        else:
            init = kmeans_pp_init(pts, m, seed=(seed, j))
            tr: list[float] = []
            cb, assign = lloyd(pts, init, lloyd_iters, trace=tr)
            state = ChannelQuantState.from_parts(cb, assign, trace=tr)
        channels.append(state)
    return QuantizedLayer(layer_idx=layer_idx, bits=bits, channels=channels)
