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
  smaller value). One engine, ``cd_cycle``, applies this rule in the
  GPTQ-style lazy-batch form (Frantar et al., arXiv 2210.17323): rows
  are normalized once (Htil = Diag(H)^-1 H), the corrections from
  not-yet-visited rows are formed as one product per cycle, and each
  update is propagated to the later rows of its batch of b rows at
  once and to the rows after the batch in one blocked product. Batch
  size changes only the order in which the floating-point corrections
  are summed: b = 1 and every b >= d give the same bits, and any b
  gives the same assignments whenever no rounding decision is within
  that summation error of a tie. The production batch CD_BATCH = 128
  is clipped to d, so layers with d <= 128 (the toy model throughout)
  run the b = d form exactly. On the 64-256-256-16 benchmark model
  (layers with d = 256, seeds 7-16) b = 128 gave the same assignments
  and codebooks as b = d. ``oracle.naive_cd_cycle`` evaluates
  the full quadratic for every candidate and is the independent
  reference.

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

CD_BATCH = 128


@dataclass(frozen=True)
class LnqConfig:
    """Knobs for one alternating-minimization run."""

    bits: int
    T: int = 2
    K: int = 4

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 8:
            raise InvalidSize(f"bits must be in 1..8, got {self.bits}")
        if self.T < 1:
            raise InvalidSize(f"T must be >= 1, got {self.T}")
        if self.K < 1:
            raise InvalidSize(f"K must be >= 1, got {self.K}")

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


def cd_cycle(
    H: Matrix, W: Matrix, C: np.ndarray, A: np.ndarray, cycles: int,
    b: int = CD_BATCH, stats: dict | None = None,
) -> None:
    """`cycles` sweeps of coordinate descent over rows 0..d-1, in place.

    Htil = Diag(H)^-1 H; B = StrictUpper(Htil) (What - W) gives each
    row's correction from rows not yet visited in the sweep. Inside a
    batch of b rows every update reaches the rows after it in the batch
    as a rank-1 correction from the strict lower column of Htil; rows
    after the batch receive one blocked correction when it finishes.
    The batch size is clipped to d. When `stats` is given, its
    "min_margin" entry tracks the smallest distance gap between the
    best and the runner-up codebook value over all rounding decisions.
    """
    d, c = W.shape
    if b < 1:
        raise InvalidSize("b must be >= 1")
    b = min(b, d)
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
                if stats is not None and C.shape[1] > 1:
                    part = np.partition(np.abs(C - u[:, None]), 1, axis=1)
                    margin = float(np.min(part[:, 1] - part[:, 0]))
                    stats["min_margin"] = min(stats.get("min_margin", np.inf), margin)
                A[i, :] = round_rows(u, C)
                new_delta = C[np.arange(c), A[i, :]] - W[i, :]
                if i + 1 < e:
                    B[i + 1 : e, :] += Htil[i + 1 : e, i : i + 1] * new_delta[None, :]
            if e < d:
                Wh_batch = np.take_along_axis(C, A[s:e, :].T, axis=1).T
                B[e:, :] += Htil[e:, s:e] @ (Wh_batch - W[s:e, :])


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
    damping is applied here. A factorization failure raises
    NotPositiveDefinite, which propagates as a GlqError (exit 2 from the
    CLI); nothing retries with more damping. `init`
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
    for _ in range(cfg.T):
        solve_codebooks()
        record()
        cd_cycle(H, W, C, A, cfg.K, stats=stats)
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
