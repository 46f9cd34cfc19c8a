"""Non-uniform per-channel quantization by alternating minimization.

Given a damped layer Hessian H (d x d, SPD) and a block of channel
weight columns W (d x c), each channel j minimizes the quadratic

    f(c, P) = (w - P c)^T H (w - P c)

over a codebook c (m values) and a one-hot assignment matrix P. The two
phases alternate T times:

* Codebook phase, assignments fixed. With H = L L^T the objective is
  ||L^T w - (L^T P) c||_2^2, so the optimal codebook is the least-squares
  solution of (L^T P) c ~ L^T w, solved per channel through an
  orthogonal factorization. Slots with no assigned weight get value 0.0
  and stay available to later descent steps.

* Coordinate-descent phase, codebook fixed: K cycles over coordinates
  i = 0..d-1 in order. The exact single-coordinate minimizer over the
  codebook follows from

      f(v) = H_ii (v - u_i)^2 + const,
      u_i  = W_ij - sum_{r != i} (H_ir / H_ii) (What_rj - W_rj),

  so the update rounds u_i to the nearest codebook value (ties to the
  smaller value). Three engines share this decision rule exactly:

  - ``naive``: evaluates the full quadratic for every codebook
    candidate; the independent reference.
  - ``closed_form``: applies the u_i rounding rule one coordinate at a
    time, recomputing the residual correction from scratch each step.
  - ``precompute``: normalizes rows once (Htil = Diag(H)^-1 H, strict
    upper part U), forms B = U (What - W) per cycle, and maintains B
    with one rank-1 correction per updated row, using the strict lower
    column of Htil so the running sums match the sequential rule.
  - ``lazy_batch``: same as precompute inside a batch of rows, with one
    blocked correction for all later rows after each batch. Batch size
    1 and batch size d reproduce precompute bit for bit; in between,
    assignments still match on tie-free instances.

Both phases descend the same damped objective, so the recorded
per-channel objective trace (initial value, then one entry after every
phase, then one after the final codebook solve: 2T + 2 values) never
increases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidSize, ZeroDiagonal
from .linalg import CholeskyFactor, Matrix, cholesky, ensure_matrix, least_squares
from .scalar_quant import (
    Assignment,
    ChannelQuantState,
    Codebook,
    QuantizedLayer,
    round_rows,
)

CD_ENGINES = ("naive", "closed_form", "precompute", "lazy_batch")
DEFAULT_LAZY_BATCH = 128


@dataclass(frozen=True)
class LnqConfig:
    """Knobs for one alternating-minimization run."""

    bits: int
    T: int = 2
    K: int = 4
    cd_engine: str = "precompute"
    lazy_batch_size: int = DEFAULT_LAZY_BATCH

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 8:
            raise InvalidSize(f"bits must be in 1..8, got {self.bits}")
        if self.T < 1:
            raise InvalidSize(f"T must be >= 1, got {self.T}")
        if self.K < 1:
            raise InvalidSize(f"K must be >= 1, got {self.K}")
        if self.cd_engine not in CD_ENGINES:
            raise ValueError(f"unknown cd engine {self.cd_engine!r}")
        if self.lazy_batch_size < 1:
            raise InvalidSize("lazy_batch_size must be >= 1")

    @property
    def m(self) -> int:
        return 2 ** self.bits


def block_objectives(H: Matrix, W: Matrix, W_hat: Matrix) -> np.ndarray:
    """Per-channel damped objectives diag((What-W)^T H (What-W))."""
    D = W_hat - W
    return np.sum(D * (H @ D), axis=0)


def codebook_closed_form(
    chol: CholeskyFactor, w: np.ndarray, assign: Assignment, m: int
) -> tuple[Codebook, Assignment]:
    """Optimal codebook for fixed assignments, then sort and remap.

    Solves the least-squares system (L^T P) c ~ L^T w restricted to the
    occupied slots; unoccupied slots get value 0.0, matching the
    minimum-norm solution of the full system. The returned codebook is
    sorted ascending with the assignment remapped accordingly (stable
    sort, so equal values keep their slot order).
    """
    w = np.ascontiguousarray(w, dtype=np.float64)
    a = assign.idx
    if w.shape[0] != chol.dim or a.shape[0] != w.shape[0]:
        raise DimensionMismatch("w, assignment and factor disagree on dimension")
    if m < 1 or (a.size and a.max() >= m):
        raise InvalidSize("assignment indices must fall inside 0..m-1")
    Lt = chol.L.T
    used = np.unique(a)
    # columns of L^T P for occupied slots: sum of L^T columns per slot
    A_ls = np.zeros((chol.dim, used.shape[0]))
    for col, q in enumerate(used):
        A_ls[:, col] = Lt[:, a == q].sum(axis=1)
    c_sub = least_squares(A_ls, Lt @ w)
    values = np.zeros(m)
    values[used] = c_sub
    order = np.argsort(values, kind="stable")
    inv = np.empty(m, dtype=np.int64)
    inv[order] = np.arange(m)
    return Codebook(values=values[order]), Assignment(idx=inv[a])


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


def cd_step_naive(H: Matrix, w: np.ndarray, state: ChannelQuantState, i: int) -> ChannelQuantState:
    """One exact coordinate update by exhaustive candidate evaluation.

    Keeps the codebook fixed; re-evaluates the full quadratic for all m
    candidate values at coordinate i and takes the first minimizer,
    which is the smallest value because codebooks are sorted.
    """
    objs = naive_candidate_objectives(H, w, state.codebook.values, state.assign.idx, i)
    q = int(objs.argmin())
    idx = state.assign.idx.copy()
    idx[i] = q
    return ChannelQuantState.from_parts(state.codebook, Assignment(idx=idx),
                                        trace=state.objective_trace)


def _round_block(u: np.ndarray, C: np.ndarray, stats: dict | None) -> np.ndarray:
    """Round one coordinate's targets against all channel codebooks,
    tracking the distance margin between best and runner-up."""
    dist = np.abs(C - u[:, None])
    if stats is not None and C.shape[1] > 1:
        part = np.partition(dist, 1, axis=1)
        margin = float(np.min(part[:, 1] - part[:, 0]))
        stats["min_margin"] = min(stats.get("min_margin", np.inf), margin)
    return dist.argmin(axis=1)


def cd_step_closed_form(
    H: Matrix,
    W: Matrix,
    C: np.ndarray,
    A: np.ndarray,
    i: int,
    stats: dict | None = None,
) -> None:
    """One closed-form coordinate update across all channels, in place.

    Forms u_i from the current residual and rounds it against each
    channel's codebook. Mutates row i of the assignment matrix A.
    """
    if H[i, i] <= 0.0:
        raise ZeroDiagonal(f"H[{i},{i}] = {H[i, i]} <= 0")
    Wh = np.take_along_axis(C, A.T, axis=1).T
    D = Wh - W
    row = H[i, :] / H[i, i]
    corr = row @ D - D[i, :]
    u = W[i, :] - corr
    A[i, :] = _round_block(u, C, stats)


def _cycle_naive(
    H: Matrix, W: Matrix, C: np.ndarray, A: np.ndarray, cycles: int,
    stats: dict | None = None,
) -> None:
    d, c = W.shape
    for _ in range(cycles):
        for i in range(d):
            for j in range(c):
                objs = naive_candidate_objectives(H, W[:, j], C[j], A[:, j], i)
                A[i, j] = int(objs.argmin())


def _cycle_closed_form(
    H: Matrix, W: Matrix, C: np.ndarray, A: np.ndarray, cycles: int,
    stats: dict | None = None,
) -> None:
    d = W.shape[0]
    for _ in range(cycles):
        for i in range(d):
            cd_step_closed_form(H, W, C, A, i, stats=stats)


def cd_cycle_precompute(
    H: Matrix, W: Matrix, C: np.ndarray, A: np.ndarray, cycles: int,
    stats: dict | None = None,
) -> None:
    """K cycles of closed-form descent with cached normalized rows.

    Htil = Diag(H)^-1 H; B = StrictUpper(Htil) (What - W) gives each
    row's contribution from not-yet-visited rows, and after every row
    update the strict lower column of Htil propagates the change to the
    rows still to come. Matches the sequential closed-form rule exactly.
    """
    d, c = W.shape
    diag = np.diag(H).copy()
    if np.any(diag <= 0.0):
        raise ZeroDiagonal("H has a non-positive diagonal entry")
    Htil = H / diag[:, None]
    U = np.triu(Htil, 1)
    for _ in range(cycles):
        Wh = np.take_along_axis(C, A.T, axis=1).T
        D = Wh - W
        B = U @ D
        for i in range(d):
            u = W[i, :] - B[i, :]
            A[i, :] = _round_block(u, C, stats)
            new_delta = C[np.arange(c), A[i, :]] - W[i, :]
            if i + 1 < d:
                B[i + 1 :, :] += Htil[i + 1 :, i : i + 1] * new_delta[None, :]


def cd_cycle_lazy_batch(
    H: Matrix, W: Matrix, C: np.ndarray, A: np.ndarray, cycles: int,
    b_batch: int = DEFAULT_LAZY_BATCH, stats: dict | None = None,
) -> None:
    """Precompute-style cycles with corrections batched over row blocks.

    Rows inside the active batch receive rank-1 corrections immediately;
    rows after the batch receive one blocked correction when the batch
    finishes. The batch size is clipped to d. Batch sizes 1 and d
    reproduce cd_cycle_precompute bit for bit.
    """
    d, c = W.shape
    if b_batch < 1:
        raise InvalidSize("b_batch must be >= 1")
    b = min(b_batch, d)
    diag = np.diag(H).copy()
    if np.any(diag <= 0.0):
        raise ZeroDiagonal("H has a non-positive diagonal entry")
    Htil = H / diag[:, None]
    U = np.triu(Htil, 1)
    for _ in range(cycles):
        Wh = np.take_along_axis(C, A.T, axis=1).T
        D = Wh - W
        B = U @ D
        for s in range(0, d, b):
            e = min(s + b, d)
            for i in range(s, e):
                u = W[i, :] - B[i, :]
                A[i, :] = _round_block(u, C, stats)
                new_delta = C[np.arange(c), A[i, :]] - W[i, :]
                if i + 1 < e:
                    B[i + 1 : e, :] += Htil[i + 1 : e, i : i + 1] * new_delta[None, :]
            if e < d:
                Wh_batch = np.take_along_axis(C, A[s:e, :].T, axis=1).T
                B[e:, :] += Htil[e:, s:e] @ (Wh_batch - W[s:e, :])


_ENGINES = {
    "naive": lambda H, W, C, A, K, b, stats: _cycle_naive(H, W, C, A, K, stats),
    "closed_form": lambda H, W, C, A, K, b, stats: _cycle_closed_form(H, W, C, A, K, stats),
    "precompute": lambda H, W, C, A, K, b, stats: cd_cycle_precompute(H, W, C, A, K, stats),
    "lazy_batch": lambda H, W, C, A, K, b, stats: cd_cycle_lazy_batch(H, W, C, A, K, b, stats),
}


def lnq_quantize(
    H_damped: Matrix,
    W_block: Matrix,
    cfg: LnqConfig,
    init: list[ChannelQuantState],
    layer_idx: int = 0,
    stats: dict | None = None,
) -> QuantizedLayer:
    """Alternating minimization for one Hessian group of channels.

    `H_damped` must already include its diagonal shift; no further
    damping is applied here, and a NotPositiveDefinite from the
    factorization signals the caller to raise the damping. `init`
    supplies one starting state per column of `W_block` (all with the
    same codebook size 2**bits). The returned states carry the
    non-increasing damped objective trace described in the module
    docstring.
    """
    H = ensure_matrix(H_damped, "H_damped")
    W = ensure_matrix(W_block, "W_block")
    d, c = W.shape
    if H.shape != (d, d):
        raise DimensionMismatch(f"H is {H.shape}, weights have d_in={d}")
    if len(init) != c:
        raise DimensionMismatch(f"{len(init)} init states for {c} channels")
    m = cfg.m
    if any(st.codebook.m != m for st in init):
        raise DimensionMismatch(f"init codebooks must all have m={m}")
    chol = cholesky(H, damping=0.0)

    C = np.stack([st.codebook.values for st in init], axis=0).astype(np.float64)
    A = np.stack([st.assign.idx for st in init], axis=1).astype(np.int64)
    traces = [[] for _ in range(c)]

    def record() -> None:
        Wh = np.take_along_axis(C, A.T, axis=1).T
        objs = block_objectives(H, W, Wh)
        for j in range(c):
            traces[j].append(float(objs[j]))

    def solve_codebooks() -> None:
        for j in range(c):
            cb, asg = codebook_closed_form(chol, W[:, j], Assignment(idx=A[:, j]), m)
            C[j, :] = cb.values
            A[:, j] = asg.idx

    record()
    engine = _ENGINES[cfg.cd_engine]
    for _ in range(cfg.T):
        solve_codebooks()
        record()
        engine(H, W, C, A, cfg.K, cfg.lazy_batch_size, stats)
        record()
    solve_codebooks()
    record()

    channels = []
    for j in range(c):
        channels.append(
            ChannelQuantState.from_parts(
                Codebook(values=C[j].copy()),
                Assignment(idx=A[:, j].copy()),
                trace=traces[j],
            )
        )
    return QuantizedLayer(layer_idx=layer_idx, bits=cfg.bits, channels=channels)
