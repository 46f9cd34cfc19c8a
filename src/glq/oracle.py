"""Brute-force reference implementations.

Everything here trades speed for independence: no code is shared with
the fast paths being checked, caps keep runtimes sane, and outputs are
deterministic (enumeration order is fixed, ties resolve to the first
candidate in that order). ``naive_cd_cycle`` takes a layer's
``hessian.HessianSet``, the input ``lnq.cd_cycle`` takes, so either can
run inside ``lnq_quantize``: the two share that input format, not code.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .calib_model import Dataset, LayerCalibration, MlpModel, calibrate, end_loss, weight_gradients
from .errors import DimensionMismatch, InvalidSize, PartitionMismatch, TooLarge, ZeroDiagonal
from .hessian import HessianSet, _check_calib
from .linalg import Matrix, ensure_matrix, ensure_vector

EXHAUSTIVE_CAP = 1_000_000
FISHER_WEIGHT_CAP = 5_000


@dataclass
class ExhaustiveResult:
    """Global optimum of the assignment-and-codebook quadratic."""

    assign: np.ndarray  # length d, slot per weight
    codebook: np.ndarray  # length m, slot order (not sorted)
    objective: float
    n_enumerated: int


def exhaustive_lnq(H_damped: Matrix, w: np.ndarray, m: int) -> ExhaustiveResult:
    """Globally optimal quantization of one channel by enumeration.

    Walks all m**d assignments in lexicographic order; for each, the
    optimal codebook restricted to the occupied slots solves the normal
    equations (P^T H P) c = P^T H w directly (deliberately a different
    route than the factored least-squares used by the fast path).
    Strict improvement keeps the lexicographically smallest optimum.

    Raises TooLarge when m**d exceeds 1e6.
    """
    H = ensure_matrix(H_damped, "H_damped")
    w = ensure_vector(w, "w")
    d = w.shape[0]
    if H.shape != (d, d):
        raise DimensionMismatch("H and w disagree on dimension")
    if m < 1:
        raise InvalidSize(f"need m >= 1, got {m}")
    total = m ** d
    if total > EXHAUSTIVE_CAP:
        raise TooLarge(f"{m}**{d} = {total} exceeds cap {EXHAUSTIVE_CAP}")
    Hw = H @ w
    best_obj = np.inf
    best_assign = None
    best_codebook = None
    count = 0
    for assign in itertools.product(range(m), repeat=d):
        count += 1
        a = np.array(assign, dtype=np.int64)
        used = np.unique(a)
        P = np.zeros((d, used.shape[0]))
        for col, q in enumerate(used):
            P[a == q, col] = 1.0
        M = P.T @ H @ P
        rhs = P.T @ Hw
        c_sub = np.linalg.solve(M, rhs)
        resid = w - P @ c_sub
        obj = float(resid @ H @ resid)
        if obj < best_obj:
            best_obj = obj
            best_assign = a
            cb = np.zeros(m)
            cb[used] = c_sub
            best_codebook = cb
    return ExhaustiveResult(
        assign=best_assign,
        codebook=best_codebook,
        objective=best_obj,
        n_enumerated=count,
    )


def naive_candidate_objectives(
    H: Matrix, w: np.ndarray, values: np.ndarray, assign_idx: np.ndarray, i: int
) -> np.ndarray:
    """Full quadratic objective for every choice of slot at coordinate i."""
    d = w.shape[0]
    if H.shape != (d, d):
        raise DimensionMismatch("H and w disagree on dimension")
    if H[i, i] <= 0.0:
        raise ZeroDiagonal(f"H[{i},{i}] = {H[i, i]} <= 0")
    delta = values[assign_idx] - w
    m = values.shape[0]
    D = np.repeat(delta[None, :], m, axis=0)
    D[:, i] = values - w[i]
    return np.einsum("qd,de,qe->q", D, H, D)


def cd_step_naive(H: Matrix, w: np.ndarray, values: np.ndarray, idx: np.ndarray,
                  i: int) -> np.ndarray:
    """One exact coordinate update by exhaustive candidate evaluation.

    Keeps the codebook `values` fixed; re-evaluates the full quadratic
    for all m candidate values at coordinate i and takes the first
    minimizer, which is the smallest value because codebooks are
    sorted. Returns a copy of the slot indices `idx` with entry i
    updated.
    """
    objs = naive_candidate_objectives(H, w, values, idx, i)
    out = np.array(idx, dtype=np.int64)
    out[i] = int(objs.argmin())
    return out


def naive_cd_cycle(
    hset: HessianSet, W: np.ndarray, C: np.ndarray, A: np.ndarray, cycles: int,
    stats: dict | None = None,
) -> None:
    """Reference for lnq.cd_cycle: same arguments (a layer's Hessian set,
    its d x c W and A and c x m C), same in-place update of A, every
    coordinate decided by naive_candidate_objectives. The groups of the
    set's partition are independent, so they run one after another. No
    rounding margins are recorded; `stats` is accepted so the two are
    interchangeable inside lnq_quantize."""
    c = W.shape[1]
    if hset.partition.d_out != c:
        raise DimensionMismatch(f"group sizes {hset.partition.sizes} for {c} channels")
    for Hk, (o, e) in zip(hset.hessians, hset.partition.bounds):
        for _ in range(cycles):
            for i in range(W.shape[0]):
                for j in range(o, e):
                    objs = naive_candidate_objectives(Hk, W[:, j], C[j], A[:, j], i)
                    A[i, j] = int(objs.argmin())


def fisher_block_oracle(calib: LayerCalibration, j: int, n: int) -> Matrix:
    """Empirical Fisher of channel j by explicit outer products.

    F_j = (1/n) sum_i g_i g_i^T with g_i = gradZ[i, j] * X[i, :]. Built
    sample by sample on purpose so it stays an independent cross-check
    for the Diag-identity path used everywhere else. The inputs are
    validated as the Hessian builders validate theirs.
    """
    X, G = _check_calib(calib)
    if not 0 <= j < G.shape[1]:
        raise PartitionMismatch(f"channel {j} out of range")
    if n < 1:
        raise InvalidSize(f"need n >= 1, got {n}")
    d = X.shape[1]
    F = np.zeros((d, d))
    for i in range(X.shape[0]):
        gi = G[i, j] * X[i, :]
        F += np.outer(gi, gi)
    return F / n


def full_fisher_quadratic(
    model: MlpModel, data: Dataset, w_hat_layers: list[Matrix]
) -> float:
    """sum over layers and channels of n * delta^T F_j delta.

    F_j is built sample by sample through fisher_block_oracle, so this
    is the slow independent end of the grouped-Hessian identity.
    Raises TooLarge above 5000 total weights.
    """
    weights = sum(W.size for W in model.layers)
    if weights > FISHER_WEIGHT_CAP:
        raise TooLarge(f"{weights} weights exceed cap {FISHER_WEIGHT_CAP}")
    if len(w_hat_layers) != model.n_layers:
        raise DimensionMismatch("one quantized matrix per layer required")
    calib = calibrate(model, data)
    n = data.n
    total = 0.0
    for l, (W, Wh) in enumerate(zip(model.layers, w_hat_layers)):
        if Wh.shape != W.shape:
            raise DimensionMismatch(f"layer {l}: {Wh.shape} vs {W.shape}")
        for j in range(W.shape[1]):
            F = fisher_block_oracle(calib[l], j, n)
            delta = Wh[:, j] - W[:, j]
            total += n * float(delta @ F @ delta)
    return total


def fd_gradient_check(
    model: MlpModel, data: Dataset, samples: int = 20, h: float = 1e-5
) -> float:
    """Max relative error of backprop weight gradients vs central
    finite differences of end_loss at `samples` random weight positions
    (fixed internal seed, so repeated calls agree).

    The error is |fd - analytic| / max(|fd|, |analytic|, 1e-4); the
    absolute floor keeps vanishing gradient entries from inflating the
    ratio past what double-precision differencing can resolve.
    """
    if samples < 1:
        raise InvalidSize("need samples >= 1")
    grads = weight_gradients(model, data)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(samples):
        l = int(rng.integers(model.n_layers))
        W = model.layers[l]
        i = int(rng.integers(W.shape[0]))
        j = int(rng.integers(W.shape[1]))
        analytic = float(grads[l][i, j])
        probe = model.copy()
        probe.layers[l][i, j] = W[i, j] + h
        up = end_loss(probe, data)
        probe.layers[l][i, j] = W[i, j] - h
        down = end_loss(probe, data)
        fd = (up - down) / (2.0 * h)
        err = abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-4)
        worst = max(worst, err)
    return worst


def round_to_codebook(x: float, values: np.ndarray) -> int:
    """Index of the nearest of the sorted codebook `values`, one scalar at
    a time; ties go to the smaller value. The reference for
    `scalar_quant.round_rows`."""
    return int(np.abs(values - x).argmin())


def weighted_sse(x: np.ndarray, w: np.ndarray, values: np.ndarray, idx: np.ndarray) -> float:
    """Sum of w * (x - values[idx])^2 over one channel's points."""
    r = x - values[idx]
    return float(np.sum(w * r * r))


def _prefix_sums(x: np.ndarray, w: np.ndarray):
    return (
        np.concatenate([[0.0], np.cumsum(w)]),
        np.concatenate([[0.0], np.cumsum(w * x)]),
        np.concatenate([[0.0], np.cumsum(w * x * x)]),
    )


def kmeans_1d_exact(x: np.ndarray, w: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Optimal weighted 1-D k-means of the points x with weights w (1-D,
    equal length) by dynamic programming, the exact reference Lloyd's
    descent only approaches from above.

    Optimal 1-D clusters are contiguous in sorted order, so prefix sums
    of (w, w x, w x^2) give each segment cost in O(1):

        cost(i..j) = sum w x^2 - (sum w x)^2 / sum w,  0 when sum w = 0,

    and the O(n^2 m) program runs over the sorted points with at most
    min(m, n) segments. Segment centers are weighted means (plain
    means for zero-weight segments, which cost nothing). Ties between
    split positions resolve to the smallest split so the result is
    deterministic. Returns the centers (one per segment, sorted), each
    point's segment in original point order, and the optimal objective.
    """
    if m < 1:
        raise InvalidSize(f"need m >= 1, got {m}")
    order = np.argsort(x, kind="stable")
    x = np.asarray(x, dtype=np.float64)[order]
    w = np.asarray(w, dtype=np.float64)[order]
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
    return centers, assign, float(best[k, n])


def kmeans_partition_oracle(x: np.ndarray, w: np.ndarray, m: int) -> float:
    """Optimal weighted 1-D k-means objective of the points x with
    weights w by enumerating every contiguous partition of the sorted
    points into min(m, n) segments.

    Costs are computed per segment from scratch (no prefix sums), so
    this shares nothing with the dynamic program it checks. Intended
    for n <= 10 or so.
    """
    if m < 1:
        raise InvalidSize(f"need m >= 1, got {m}")
    order = np.argsort(x, kind="stable")
    x = np.asarray(x, dtype=np.float64)[order]
    w = np.asarray(w, dtype=np.float64)[order]
    n = x.shape[0]
    k = min(m, n)

    def seg_cost(i: int, j: int) -> float:
        xs, ws = x[i:j], w[i:j]
        sw = float(np.sum(ws))
        if sw <= 0.0:
            return 0.0
        mu = float(np.sum(ws * xs)) / sw
        return float(np.sum(ws * (xs - mu) ** 2))

    best = np.inf
    for splits in itertools.combinations(range(1, n), k - 1):
        edges = (0,) + splits + (n,)
        cost = sum(seg_cost(edges[q], edges[q + 1]) for q in range(k))
        best = min(best, cost)
    return float(best)


def least_squares_normal_oracle(A: Matrix, b: np.ndarray) -> np.ndarray:
    """Solve A x ~ b through explicit normal equations. Only valid for
    full-column-rank A; used to cross-check the factored solver."""
    A = ensure_matrix(A, "A")
    b = ensure_vector(b, "b")
    return np.linalg.solve(A.T @ A, A.T @ b)
