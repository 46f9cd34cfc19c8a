"""Non-uniform per-channel quantization by alternating minimization.

Given a damped layer Hessian H (d x d, SPD) and a block of channel
weight columns W (d x c), each channel j minimizes the quadratic

    f(c, P) = (w - P c)^T H (w - P c)

over a codebook c (m values) and a one-hot assignment matrix P. The two
phases alternate T times:

* Codebook phase, assignments fixed. With H = L L^T (L from
  ``linalg.cholesky``) the objective is ||L^T w - (L^T P) c||_2^2, so
  the optimal codebook is the least-squares solution of
  (L^T P) c ~ L^T w, solved per channel through an orthogonal
  factorization. Slots with no assigned weight get value 0.0
  and stay available to later descent steps. ``codebook_closed_form``
  solves one group per call: one pass over the rows of L adds each row
  to its slot's column for every channel at once, so every column is
  the sum of its rows taken one after another from 0.0, which is how
  numpy sums the rows of an array over axis 0; the columns, and the
  codebooks solved from them, keep the bits of one solve per channel.
  The phase works on the stack's codebook and assignment arrays in
  place and checks the whole codebook stack once when it ends
  (``scalar_quant.check_codebooks``: finite, rows sorted).

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

``lnq_quantize`` and ``cd_cycle`` take a stack of G channel groups of
one size, each with its own Hessian, and give the bits of G separate
runs. ``lnq_quantize`` takes the bit width, T and K as ints, starts
from a (codebooks, assignments) pair of arrays and returns one
``QuantizedLayer`` holding the stack's channels group by group. A CD
row step is elementwise, so it is applied to all G x c channels at
once; every matrix product is still formed per group with the shapes
one group alone would use. Groups of different sizes are never padded
to one size: on OpenBLAS a product over padded columns, (U @ D)[:, :k],
can differ in the last bit from U @ D[:, :k]. A consecutive partition
has at most two group sizes, so a layer costs at most two stacks.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidSize,
    NotPositiveDefinite,
    SingularHessian,
    ZeroDiagonal,
)
from .linalg import Matrix, cholesky, ensure_matrix, least_squares, zero_curvature
from .scalar_quant import QuantizedLayer, _codebook_size, check_codebooks, round_rows

CD_BATCH = 128
# Columns of L^T P (1 MiB of float64) one codebook solve holds at a time.
CODEBOOK_COLUMNS = 1 << 17


def block_objectives(H: Matrix, W: Matrix, W_hat: Matrix) -> np.ndarray:
    """Per-channel damped objectives diag((What-W)^T H (What-W))."""
    D = W_hat - W
    return np.sum(D * (H @ D), axis=0)


def codebook_closed_form(
    L: Matrix, W: np.ndarray, A: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Optimal codebooks of one group for fixed assignments, then sort
    and remap.

    `L` is the lower-triangular Cholesky factor of the group's damped
    Hessian (`linalg.cholesky`); `W` and `A` are the group's d x c
    weights and slot assignments (c = 1 for one channel). For each
    channel solves the least-squares system (L^T P) c ~ L^T w
    restricted to the occupied slots; unoccupied slots get value 0.0,
    matching the minimum-norm solution of the full system. Returns the
    codebooks (c x m, rows sorted ascending) and the assignments (d x c)
    remapped accordingly (stable sort, so equal values keep their slot
    order).

    Column q of a channel's L^T P is the sum of the rows of L assigned
    to slot q. One pass over the rows of L adds row i to slot A[i, j] of
    every channel j at once, into an array of columns that starts at
    0.0, so each column adds its rows one after another in index order
    from 0.0: the sequence of additions numpy's sum over axis 0 of those
    rows makes, so the columns keep their bits. A row's entries past its
    last nonzero (for a Cholesky factor, the upper triangle) are
    skipped: a sum that starts at 0.0 is never -0.0, so adding a zero
    leaves it as it is. The columns of at most CODEBOOK_COLUMNS // (m d)
    channels are held at a time.
    """
    W = np.asarray(W, dtype=np.float64)
    A = np.asarray(A)
    if W.ndim != 2:
        raise DimensionMismatch(f"W must be d x c, got ndim={W.ndim}")
    d, c = W.shape
    if L.shape != (d, d) or A.shape != W.shape:
        raise DimensionMismatch("weights, assignments and factor disagree on dimension")
    if m < 1 or (A.size and (A.min() < 0 or A.max() >= m)):
        raise InvalidSize("assignment indices must fall inside 0..m-1")
    nonzero = L != 0.0
    ends = ((d - np.argmax(nonzero[:, ::-1], axis=1)) * nonzero.any(axis=1)).tolist()
    values = np.zeros((c, m))
    step = max(1, CODEBOOK_COLUMNS // (m * d))
    for j0 in range(0, c, step):
        k = min(step, c - j0)
        slots = A[:, j0:j0 + k] + m * np.arange(k)  # row of `cols` per (channel, slot)
        cols = np.zeros((k * m, d))
        for row, idx, e in zip(L, slots, ends):
            head = cols[:, :e]
            head[idx] += row[:e]
        used = np.bincount(slots.ravel(), minlength=k * m).reshape(k, m) > 0
        for j, w in enumerate(np.ascontiguousarray(W[:, j0:j0 + k].T)):
            q = np.flatnonzero(used[j])
            values[j0 + j, q] = least_squares(cols[m * j + q].T, L.T @ w)
    order = np.argsort(values, axis=1, kind="stable")
    inv = np.empty((c, m), dtype=np.int64)
    np.put_along_axis(inv, order, np.arange(m)[None, :], axis=1)
    return np.take_along_axis(values, order, axis=1), np.take_along_axis(inv, A.T, axis=1).T


def cd_cycle(
    H, W: np.ndarray, C: np.ndarray, A: np.ndarray, cycles: int,
    b: int = CD_BATCH, stats: dict | None = None,
) -> None:
    """`cycles` sweeps of coordinate descent over rows 0..d-1, in place.

    Runs a stack of G independent groups of c channels at once: `H` is
    a sequence of G d x d Hessians, W and A are G x d x c and C is
    G x c x m. A 2-D W (d x c), C (c x m) and A (d x c) with one
    matrix H is a stack of one.

    Htil = Diag(H)^-1 H; B = StrictUpper(Htil) (What - W) gives each
    row's correction from rows not yet visited in the sweep. Inside a
    batch of b rows every update reaches the rows after it in the batch
    as a rank-1 correction from the strict lower column of Htil; rows
    after the batch receive one blocked correction when it finishes.
    The batch size is clipped to d. When `stats` is given, its
    "min_margin" entry tracks the smallest distance gap between the
    best and the runner-up codebook value over all rounding decisions.

    Each group's U = StrictUpper(Htil) is formed once per cycle. Of
    Htil only the batch's diagonal blocks are held for the whole stack
    (G x b x b); the rows below a batch are formed one group at a time,
    so no G x d x d copy of the Hessians is made.
    """
    if W.ndim == 2:
        H, W, C, A = [H], W[None], C[None], A[None]
    G, d, c = W.shape
    if len(H) != G:
        raise DimensionMismatch(f"{len(H)} Hessians for a stack of {G} groups")
    if b < 1:
        raise InvalidSize("b must be >= 1")
    b = min(b, d)
    diags = [np.diag(Hk).copy() for Hk in H]
    if any(np.any(dk <= 0.0) for dk in diags):
        raise ZeroDiagonal("H has a non-positive diagonal entry")
    C_rows = C.reshape(G * c, -1)  # one codebook row per (group, channel)
    rows = np.arange(G * c)
    for _ in range(cycles):
        B = np.empty(W.shape)
        for k, (Hk, dk) in enumerate(zip(H, diags)):
            D = np.take_along_axis(C[k], A[k].T, axis=1).T - W[k]
            B[k] = np.triu(Hk / dk[:, None], 1) @ D
        for s in range(0, d, b):
            e = min(s + b, d)
            Hblk = np.empty((G, e - s, e - s))  # Htil[s:e, s:e] per group
            for k, (Hk, dk) in enumerate(zip(H, diags)):
                np.divide(Hk[s:e, s:e], dk[s:e, None], out=Hblk[k])
            for i in range(s, e):
                u = (W[:, i, :] - B[:, i, :]).reshape(-1)
                if stats is not None and C.shape[2] > 1:
                    part = np.partition(np.abs(C_rows - u[:, None]), 1, axis=1)
                    margin = float(np.min(part[:, 1] - part[:, 0]))
                    stats["min_margin"] = min(stats.get("min_margin", np.inf), margin)
                q = round_rows(u, C_rows)
                A[:, i, :] = q.reshape(G, c)
                new_delta = (C_rows[rows, q] - W[:, i, :].reshape(-1)).reshape(G, c)
                if i + 1 < e:
                    B[:, i + 1 : e, :] += Hblk[:, i + 1 - s :, i - s, None] * new_delta[:, None, :]
            if e < d:
                Wh_batch = np.take_along_axis(
                    C, A[:, s:e, :].transpose(0, 2, 1), axis=2).transpose(0, 2, 1)
                delta = Wh_batch - W[:, s:e, :]
                for k, (Hk, dk) in enumerate(zip(H, diags)):
                    B[k, e:] += (Hk[e:, s:e] / dk[e:, None]) @ delta[k]


def lnq_quantize(
    H_damped,
    W_block: np.ndarray,
    bits: int,
    T: int,
    K: int,
    init: tuple[np.ndarray, np.ndarray],
    layer_idx: int = 0,
    stats: dict | None = None,
) -> QuantizedLayer:
    """Alternating minimization for one Hessian group of channels, or a
    stack of G groups of equal size.

    `H_damped` is the group's d x d Hessian with `W_block` d x c, or a
    sequence of G Hessians with `W_block` G x d x c. Each must already
    include its diagonal shift; no further damping is applied here. A
    Hessian that does not factor raises SingularHessian, a
    NotPositiveDefinite naming `layer_idx`, the group's index in the
    stack and the cause (exit 2 from the CLI); nothing retries with
    more damping. `bits` (1..8), `T` and `K` (>= 1) are checked first
    (InvalidSize). `init` is the starting (codebooks, assignments) pair:
    c x m and d x c arrays for one group, G x c x m and G x d x c for a
    stack, with m = 2**bits; it is copied, not updated. The returned
    layer holds the G x c channels group by group (codebooks G c x m,
    assignments d x G c), each with the non-increasing damped objective
    trace described in the module docstring. A stack gives the bits of
    G separate runs.
    """
    m = _codebook_size(bits)
    if T < 1:
        raise InvalidSize(f"T must be >= 1, got {T}")
    if K < 1:
        raise InvalidSize(f"K must be >= 1, got {K}")
    W = np.ascontiguousarray(W_block, dtype=np.float64)
    C = np.array(init[0], dtype=np.float64, order="C")
    A = np.array(init[1], dtype=np.int64, order="C")
    if W.ndim == 2:
        H_damped, W, C, A = [H_damped], W[None], C[None], A[None]
    if W.ndim != 3:
        raise DimensionMismatch(f"W_block must be 2-D or 3-D, got ndim={W.ndim}")
    if not np.all(np.isfinite(W)):
        raise ValueError("W_block: non-finite entries")
    H = [ensure_matrix(Hk, "H_damped") for Hk in H_damped]
    G, d, c = W.shape
    if len(H) != G:
        raise DimensionMismatch(f"{len(H)} Hessians for a stack of {G} groups")
    if any(Hk.shape != (d, d) for Hk in H):
        raise DimensionMismatch(f"H is {H[0].shape}, weights have d_in={d}")
    if C.shape != (G, c, m) or A.shape != (G, d, c):
        raise DimensionMismatch(
            f"init codebooks {C.shape[-2:]} and assignments {A.shape[-2:]} per group, "
            f"expected {(c, m)} and {(d, c)}")
    traces = []  # one G x c list of objectives per record()

    def record() -> None:
        traces.append([block_objectives(H[k], W[k], np.take_along_axis(C[k], A[k].T, axis=1).T)
                       for k in range(G)])

    def solve_codebooks() -> None:
        # one factor at a time, refactored per phase, so a stack never
        # holds G factors at once
        for k in range(G):
            try:
                L = cholesky(H[k])
            except NotPositiveDefinite as exc:
                cause = zero_curvature(H[k]) or str(exc)
                raise SingularHessian(layer_idx, k, cause) from exc
            C[k], A[k] = codebook_closed_form(L, W[k], A[k], m)
        check_codebooks(C)  # once for the whole stack

    record()
    for _ in range(T):
        solve_codebooks()
        record()
        cd_cycle(H, W, C, A, K, stats=stats)
        record()
    solve_codebooks()
    record()

    per_channel = np.array(traces).reshape(len(traces), G * c).T.tolist()
    return QuantizedLayer(layer_idx, bits, C.reshape(G * c, m),
                          A.transpose(1, 0, 2).reshape(d, G * c), per_channel)
