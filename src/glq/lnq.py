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
  The phase works on the layer's codebook and assignment arrays in
  place, one group's columns at a time, and checks the layer's
  codebooks once when it ends (``scalar_quant.check_codebooks``:
  finite, rows sorted).

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
  reference. The in-batch blocks of Htil (b x b per group) of a layer
  with many groups are held CD_BLOCK_BYTES at a time: its groups run in
  consecutive chunks, which changes no bit since groups are
  independent.

Both phases descend the same damped objective, so the recorded
per-channel objective trace (initial value, then one entry after every
phase, then one after the final codebook solve: 2T + 2 values) never
increases.

``lnq_quantize`` and ``cd_cycle`` take one layer's own row-major
arrays, W and A d x c and C c x m (``scalar_quant.QuantizedLayer``'s
layout), with the consecutive group sizes and one Hessian per group,
and give the bits of one run per group. ``lnq_quantize`` takes the bit
width, T and K as ints, starts from a (codebooks, assignments) pair of
arrays and returns the layer's ``QuantizedLayer``. A CD row step is
elementwise, so it reads row i of W and B and writes row i of A for
every channel of the layer at once, and each run of equal-size groups
gets its rank-1 update through one (rows, groups, size) view. Every
matrix product and column sum is still formed per group, on a
C-contiguous copy of the group's columns with the shapes one group
alone would use: on OpenBLAS the bits of a product follow the layout of
its operands, and a product over padded columns, (U @ D)[:, :k], can
differ in the last bit from U @ D[:, :k], so groups are never padded or
multiplied through strided views.
"""

from __future__ import annotations

import itertools

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
# Bytes of the in-batch Htil blocks (b x b per group) one CD pass holds;
# a layer whose groups need more runs them in consecutive chunks.
CD_BLOCK_BYTES = 1 << 20
# Columns of L^T P (1 MiB of float64) one codebook solve holds at a time.
CODEBOOK_COLUMNS = 1 << 17


def _group_bounds(c: int, sizes) -> list[tuple[int, int]]:
    """(first, end) columns of each group of consecutive sizes `sizes`
    over c channels; None is one group of all c."""
    sizes = [c] if sizes is None else [int(k) for k in sizes]
    if any(k < 1 for k in sizes) or sum(sizes) != c:
        raise DimensionMismatch(f"group sizes {sizes} do not split {c} channels")
    ends = np.cumsum(sizes).tolist()
    return list(zip([0] + ends[:-1], ends))


def _group_deltas(W: np.ndarray, C: np.ndarray, A: np.ndarray,
                  bounds: list[tuple[int, int]]) -> list[np.ndarray]:
    """What - W of each group as its own C-contiguous array: the layout
    the group's rows would have alone, which its products (OpenBLAS bits
    follow the operand layout) and column sums keep their bits in."""
    D = np.take_along_axis(C, A.T, axis=1).T - W
    return [np.ascontiguousarray(D[:, o:e]) for o, e in bounds]


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
    sizes=None, b: int = CD_BATCH, stats: dict | None = None,
) -> None:
    """`cycles` sweeps of coordinate descent over rows 0..d-1, in place.

    Runs one layer's groups at once: W and A are the layer's d x c
    weights and slots, C its c x m codebooks, `sizes` the consecutive
    group sizes (None: one group of all c) and `H` one d x d Hessian per
    group (a single 2-D H is one group).

    Htil = Diag(H)^-1 H; B = StrictUpper(Htil) (What - W) gives each
    row's correction from rows not yet visited in the sweep. Inside a
    batch of b rows every update reaches the rows after it in the batch
    as a rank-1 correction from the strict lower column of Htil; rows
    after the batch receive one blocked correction when it finishes.
    The batch size is clipped to d. When `stats` is given, its
    "min_margin" entry tracks the smallest distance gap between the
    best and the runner-up codebook value over all rounding decisions.

    A row step reads row i of W and B and writes row i of A, for every
    channel of the layer at once; the rank-1 correction reaches each run
    of equal-size groups through one (rows, groups, size) view. Each
    group's products are formed with the shapes and contiguous operands
    the group alone would use, so a layer gives the bits of one call per
    group. Each group's U = StrictUpper(Htil) is formed once per cycle;
    of Htil only the batch's diagonal blocks are held for several groups
    (b x b each), the groups running in consecutive chunks whose blocks
    fit CD_BLOCK_BYTES, and the rows below a batch are formed one group
    at a time, so no copy of the whole Hessian set is made.
    """
    if isinstance(H, np.ndarray) and H.ndim == 2:
        H = [H]
    d, c = W.shape
    bounds = _group_bounds(c, sizes)
    if len(H) != len(bounds):
        raise DimensionMismatch(f"{len(H)} Hessians for {len(bounds)} groups")
    if A.shape != (d, c) or C.shape[0] != c:
        raise DimensionMismatch(f"weights {W.shape}, codebooks {C.shape} and slots {A.shape} "
                                "are not d x c, c x m and d x c")
    if b < 1:
        raise InvalidSize("b must be >= 1")
    b = min(b, d)
    diags = [np.diag(Hk).copy() for Hk in H]
    if any(np.any(dk <= 0.0) for dk in diags):
        raise ZeroDiagonal("H has a non-positive diagonal entry")
    per = max(1, CD_BLOCK_BYTES // (8 * b * b))  # groups per chunk
    for k0 in range(0, len(H), per):
        k1 = min(k0 + per, len(H))
        o, e = bounds[k0][0], bounds[k1 - 1][1]
        _cd_chunk(H[k0:k1], diags[k0:k1], [(s - o, t - o) for s, t in bounds[k0:k1]],
                  W[:, o:e], C[o:e], A[:, o:e], cycles, b, stats)


def _cd_chunk(H, diags, bounds, W, C, A, cycles, b, stats) -> None:
    """`cd_cycle` over a chunk of consecutive groups: W, C and A are the
    chunk's columns and `bounds` its groups' columns within them."""
    d, c = W.shape
    rows = np.arange(c)
    B = np.empty((d, c))
    # (first group, groups, first column, size, view of B) per run of equal sizes
    runs = []
    sizes = [t - o for o, t in bounds]
    for size, run in itertools.groupby(range(len(bounds)), key=sizes.__getitem__):
        ks = list(run)
        o = bounds[ks[0]][0]
        runs.append((ks[0], len(ks), o, size, B[:, o:o + len(ks) * size].reshape(d, len(ks), size)))
    Hblk = np.empty((b, b, len(H)))  # Htil[s:e, s:e] of group k in [:, :, k]
    for _ in range(cycles):
        for (o, e), Hk, dk, Dk in zip(bounds, H, diags, _group_deltas(W, C, A, bounds)):
            B[:, o:e] = np.triu(Hk / dk[:, None], 1) @ Dk
        for s in range(0, d, b):
            e = min(s + b, d)
            for k, (Hk, dk) in enumerate(zip(H, diags)):
                np.divide(Hk[s:e, s:e], dk[s:e, None], out=Hblk[:e - s, :e - s, k])
            for i in range(s, e):
                u = W[i] - B[i]
                if stats is not None and C.shape[1] > 1:
                    part = np.partition(np.abs(C - u[:, None]), 1, axis=1)
                    margin = float(np.min(part[:, 1] - part[:, 0]))
                    stats["min_margin"] = min(stats.get("min_margin", np.inf), margin)
                q = round_rows(u, C)
                A[i] = q
                if i + 1 < e:
                    new_delta = C[rows, q] - W[i]
                    col = Hblk[i + 1 - s:e - s, i - s]  # rows x groups
                    for k0, G, o, size, B3 in runs:
                        B3[i + 1:e] += (col[:, k0:k0 + G, None]
                                        * new_delta[o:o + G * size].reshape(G, size))
            if e < d:
                for (o, t), Hk, dk, Dk in zip(bounds, H, diags,
                                              _group_deltas(W[s:e], C, A[s:e], bounds)):
                    B[e:, o:t] += (Hk[e:, s:e] / dk[e:, None]) @ Dk


def lnq_quantize(
    H_damped,
    W_block: np.ndarray,
    bits: int,
    T: int,
    K: int,
    init: tuple[np.ndarray, np.ndarray],
    layer_idx: int = 0,
    stats: dict | None = None,
    sizes=None,
) -> QuantizedLayer:
    """Alternating minimization for one layer's channel groups.

    `W_block` holds the layer's d x c weights, `sizes` its consecutive
    group sizes (None: one group of all c) and `H_damped` one d x d
    Hessian per group (a single 2-D matrix is one group). Each must
    already include its diagonal shift; no further damping is applied
    here. A Hessian that does not factor raises SingularHessian, a
    NotPositiveDefinite naming `layer_idx`, the group's index in the
    layer and the cause (exit 2 from the CLI); nothing retries with
    more damping. `bits` (1..8), `T` and `K` (>= 1) are checked first
    (InvalidSize). `init` is the starting (codebooks, assignments) pair,
    c x m and d x c arrays with m = 2**bits; it is copied, not updated.
    The returned layer holds the c channels in order, each with the
    non-increasing damped objective trace described in the module
    docstring, and gives the bits of one run per group.
    """
    m = _codebook_size(bits)
    if T < 1:
        raise InvalidSize(f"T must be >= 1, got {T}")
    if K < 1:
        raise InvalidSize(f"K must be >= 1, got {K}")
    W = np.ascontiguousarray(W_block, dtype=np.float64)
    C = np.array(init[0], dtype=np.float64, order="C")
    A = np.array(init[1], dtype=np.int64, order="C")
    if W.ndim != 2:
        raise DimensionMismatch(f"W_block must be d x c, got ndim={W.ndim}")
    if not np.all(np.isfinite(W)):
        raise ValueError("W_block: non-finite entries")
    if isinstance(H_damped, np.ndarray) and H_damped.ndim == 2:
        H_damped = [H_damped]
    H = [ensure_matrix(Hk, "H_damped") for Hk in H_damped]
    d, c = W.shape
    bounds = _group_bounds(c, sizes)
    if len(H) != len(bounds):
        raise DimensionMismatch(f"{len(H)} Hessians for {len(bounds)} groups")
    if any(Hk.shape != (d, d) for Hk in H):
        raise DimensionMismatch(f"H is {H[0].shape}, weights have d_in={d}")
    if C.shape != (c, m) or A.shape != (d, c):
        raise DimensionMismatch(f"init codebooks {C.shape} and assignments {A.shape}, "
                                f"expected {(c, m)} and {(d, c)}")
    traces = []  # one length-c array of objectives per record()

    def record() -> None:
        traces.append(np.concatenate([np.sum(D * (Hk @ D), axis=0)
                                      for Hk, D in zip(H, _group_deltas(W, C, A, bounds))]))

    def solve_codebooks() -> None:
        # one factor at a time, refactored per phase, so a layer never
        # holds its groups' factors at once
        for k, (Hk, (o, e)) in enumerate(zip(H, bounds)):
            try:
                L = cholesky(Hk)
            except NotPositiveDefinite as exc:
                cause = zero_curvature(Hk) or str(exc)
                raise SingularHessian(layer_idx, k, cause) from exc
            C[o:e], A[:, o:e] = codebook_closed_form(L, W[:, o:e], A[:, o:e], m)
        check_codebooks(C)  # once for the whole layer

    record()
    for _ in range(T):
        solve_codebooks()
        record()
        cd_cycle(H, W, C, A, K, sizes=sizes, stats=stats)
        record()
    solve_codebooks()
    record()

    return QuantizedLayer(layer_idx, bits, C, A, np.array(traces).T.tolist())
