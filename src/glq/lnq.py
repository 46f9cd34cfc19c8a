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
  and stay available to later descent steps. The phase works on the
  whole layer, in chunks of consecutive groups whose factors (d x d
  each), L^T P columns (m x d per channel) and, for channels not in
  one range, copies of their L^T w and slots fit CODEBOOK_BYTES. Each
  group is factored once per phase, while its chunk is solved; a
  group too wide for the budget is a chunk of its own, walked a piece
  of its channels at a time. ``codebook_closed_form`` solves one chunk:
  one pass over the rows of its factors adds row i of each channel's
  factor to that channel's slot column, so every column is the sum of
  its rows taken one after another from 0.0, which is how numpy sums
  the rows of an array over axis 0, and each system gets one LAPACK
  call on the values a lone solve would pass (``linalg.least_squares``);
  the codebooks keep the bits of one solve per channel. L^T w depends
  on neither slots nor codebooks, so it is formed once per
  ``lnq_quantize``, in the first phase, by one gemv per channel (a
  stacked matmul over contiguous channels has the bits of L.T @ w;
  the gemm L.T @ W does not). A channel whose slots equal the ones its
  previous solve started from has the same factor (a deterministic
  factorization of the same H), the same w and the same slots, so the
  same system: it keeps that solve's codebook and slots and stays out
  of the walk, and a group left with no channel to solve is not
  factored. The phase checks the layer's codebooks once when it ends
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
  not-yet-visited rows are formed as one product per cycle, the
  updates of a batch of b rows reach a later row of the batch when the
  walk gets to it (added in row order, as pushing each on at once did:
  the same bits) and the rows after it in one blocked product. Batch
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
increases. Every entry is ``damped_objectives``' value, the one
definition of a channel's damped objective, whose sum over a layer's
channels is the report's ``damped_objective``
(``guidedquant.damped_quadratic``).

``lnq_quantize`` and ``cd_cycle`` take one layer's
``hessian.HessianSet``, whose partition gives the consecutive groups
and whose matrices, one per group, were checked when the set was made,
with the layer's own row-major arrays, W and A d x c and C c x m
(``scalar_quant.QuantizedLayer``'s layout), and give the bits of one
run per group. ``lnq_quantize`` takes the bit
width, T and K as ints, takes over a (codebooks, assignments) pair of
arrays as its start, solves the layer in place on them and returns the
layer's ``QuantizedLayer``, which holds them. A CD row step is
elementwise, so it reads row i of W and B and writes row i of A for
every channel of the layer at once. Every
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
from .hessian import HessianSet
from .linalg import cholesky, least_squares, zero_curvature
from .scalar_quant import QuantizedLayer, check_codebooks, codebook_size, round_rows

CD_BATCH = 128
# Bytes of the in-batch Htil blocks (b x b per group) one CD pass holds;
# a layer whose groups need more runs them in consecutive chunks.
CD_BLOCK_BYTES = 1 << 20
# Bytes of group factors (d x d each), L^T P columns (m x d per channel)
# and copies of scattered channels (2 x d each) one codebook chunk holds;
# a walk holds the columns of at most half of it, so a group too wide
# for a chunk keeps its factor beside them.
CODEBOOK_BYTES = 1 << 21


def _group_deltas(W: np.ndarray, C: np.ndarray, A: np.ndarray,
                  bounds: list[tuple[int, int]]):
    """What - W of each group in turn, formed as its own C-contiguous
    array: the layout the group's rows would have alone, which its
    products (OpenBLAS bits follow the operand layout) and column sums
    keep their bits in. No layer-wide copy is made."""
    for o, e in bounds:
        D = C.take(A[:, o:e] + np.arange(o, e) * C.shape[1])  # flat C
        yield np.subtract(D, W[:, o:e], out=D)


def damped_objectives(H: list[np.ndarray], deltas) -> np.ndarray:
    """The damped objective delta^T Hbar_k delta of every channel, delta =
    What_j - W_j: the one definition the traces and the report use.

    `deltas` gives each group's What - W in turn as a C-contiguous d x c_k
    array, the layout the group's rows would have alone, and H[k] is
    group k's Hessian. Group k's values are the column sums of
    D * (H[k] @ D); they come back concatenated, channels in order."""
    return np.concatenate([np.sum(D * (Hk @ D), axis=0) for Hk, D in zip(H, deltas)])


def _codebook_chunks(bounds: list[tuple[int, int]], pending: np.ndarray, d: int, m: int):
    """The pending channels (sorted indices) of consecutive groups, as
    lists of (group, channels) whose factors, L^T P columns and copies
    (of channels not in one range) fit CODEBOOK_BYTES; a group too big
    alone is a chunk of its own, a group with no pending channel in none."""
    budget = CODEBOOK_BYTES // 8  # float64 (and int64) entries
    chunk, size, n = [], 0, 0
    for k, js in enumerate(np.split(pending, np.searchsorted(pending, [e for _, e in bounds[:-1]]))):
        if not js.size:
            continue
        need = d * d + js.size * m * d
        scattered = js[-1] + 1 - (chunk[0][1][0] if chunk else js[0]) != n + js.size
        if chunk and size + need + scattered * 2 * d * (n + js.size) > budget:
            yield chunk
            chunk, size, n = [], 0, 0
        chunk.append((k, js))
        size, n = size + need, n + js.size
    if chunk:
        yield chunk


def codebook_closed_form(
    L: np.ndarray, LtW: np.ndarray, A: np.ndarray, m: int, group: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Optimal codebooks of a chunk of channels for fixed assignments,
    then sort and remap.

    `L` holds the lower-triangular Cholesky factors (`linalg.cholesky`,
    positive diagonal) of the chunk's groups' damped Hessians, G x d x
    d; channel j uses factor `group[j]`. `LtW` holds L^T w of each
    channel (c x d) and `A` their d x c slot assignments. For each
    channel solves the least-squares system (L^T P) c ~ L^T w
    restricted to the occupied slots; unoccupied slots get value 0.0,
    matching the minimum-norm solution of the full system. Returns the
    codebooks (c x m, rows sorted ascending) and the assignments (d x c)
    remapped accordingly (stable sort, so equal values keep their slot
    order).

    Column q of a channel's L^T P is the sum of the rows of its factor
    assigned to slot q. One pass over the rows adds row i of each
    channel's factor to slot A[i, j] of channel j, for every channel at
    once, into an array of columns that starts at 0.0, so each column
    adds its rows one after another in index order from 0.0: the
    sequence of additions numpy's sum over axis 0 of those rows makes,
    so the columns keep their bits. Row i adds only its first i + 1
    entries, since a Cholesky row ends at its positive diagonal: a sum
    that starts at 0.0 is never -0.0, so adding the zeros past it would
    leave it as it is. Only used slots get a column, laid out with the
    channels in order of their used count, so the systems of each count
    are one strided view of the columns, handed to
    `linalg.least_squares` as one stack without a copy. The columns of
    at most CODEBOOK_BYTES // (16 m d) channels are held at a time.
    """
    L = np.asarray(L, dtype=np.float64)
    LtW = np.asarray(LtW, dtype=np.float64)
    A = np.asarray(A)
    group = np.asarray(group)
    if L.ndim != 3 or LtW.ndim != 2:
        raise DimensionMismatch(f"factors must be G x d x d and L^T W c x d, "
                                f"got ndim={L.ndim} and {LtW.ndim}")
    c, d = LtW.shape
    if L.shape[1:] != (d, d) or A.shape != (d, c) or group.shape != (c,):
        raise DimensionMismatch("L^T W, assignments, groups and factors disagree on dimension")
    if c and (group.min() < 0 or group.max() >= L.shape[0]):
        raise DimensionMismatch(f"group indices must fall inside 0..{L.shape[0] - 1}")
    if m < 1 or (A.size and (A.min() < 0 or A.max() >= m)):
        raise InvalidSize("assignment indices must fall inside 0..m-1")
    values = np.zeros((c, m))
    step = max(1, CODEBOOK_BYTES // (16 * m * d))  # half the budget, beside a factor
    for j0 in range(0, c, step):
        a = A[:, j0:j0 + step]
        k = a.shape[1]
        used = np.zeros((k, m), dtype=bool)
        used[np.arange(k), a] = True
        count = used.sum(axis=1)
        # one column per used slot, channels in order of their used count,
        # so the systems of each count are one view of `cols`
        by_count = np.argsort(count, kind="stable")
        row = np.empty((k, m), dtype=np.int64)
        row[by_count] = (np.cumsum(used[by_count]) - 1).reshape(k, m)
        slots = row.take(a + np.arange(0, k * m, m))  # row[j, a[i, j]], d x k
        gk = group[j0:j0 + k]
        if np.all(gk == gk[0]):
            gk = gk[0]  # one factor: its row is broadcast, not gathered per channel
        cols = np.zeros((int(count.sum()), d))
        for i, idx in enumerate(slots):
            head = cols[:, :i + 1]
            head[idx] += L[gk, i, :i + 1]
        r0 = 0
        for u in np.unique(count).tolist():
            js = by_count[count[by_count] == u]
            q = np.nonzero(used[js])[1].reshape(js.size, u)  # each channel's used slots
            stack = cols[r0:r0 + js.size * u].reshape(js.size, u, d).transpose(0, 2, 1)
            values[j0 + js[:, None], q] = least_squares(stack, LtW[j0 + js])
            r0 += js.size * u
    order = np.argsort(values, axis=1, kind="stable")
    base = np.arange(0, c * m, m)  # each channel's first entry in a flat c x m array
    # the argsort of a permutation is its inverse: each old slot's new slot
    return values.take(order + base[:, None]), np.argsort(order, axis=1).take(A + base)


def cd_cycle(
    hset: HessianSet, W: np.ndarray, C: np.ndarray, A: np.ndarray, cycles: int,
    b: int = CD_BATCH, stats: dict | None = None,
) -> None:
    """`cycles` sweeps of coordinate descent over rows 0..d-1, in place.

    Runs one layer's groups at once: W and A are the layer's d x c
    weights and slots, C its c x m codebooks and `hset` the layer's
    Hessian set, whose partition gives the consecutive groups.

    Htil = Diag(H)^-1 H; B = StrictUpper(Htil) (What - W) gives each
    row's correction from rows not yet visited in the sweep. In a batch
    of b rows from s, row r's correction from rows s..r-1 is formed when
    the walk reaches r: np.add.reduce adds B[r] and each product
    Htil[r, i] D[i], D = What - W, one after another, as pushing each
    update into the later rows at once did (the same bits). Rows after
    the batch receive one blocked correction when it finishes. The
    batch size is clipped to d. When `stats` is given, its
    "min_margin" entry tracks the smallest distance gap between the
    best and the runner-up codebook value over all rounding decisions.

    A row step reads row i of W and B and writes row i of A, for every
    channel of the layer at once. Each group's products are formed with
    the shapes and contiguous operands the group alone would use, so a
    layer gives the bits of one call per group. Each group's U =
    StrictUpper(Htil) is formed once per cycle, in place in one d x d
    buffer (the bits of np.triu(Htil, 1)), whose memory the batch's
    deltas and products (b x c each) reuse after it, and What - W one
    group at a time; of Htil only the batch's diagonal blocks are held
    for several groups (b x b each), the groups running in consecutive
    chunks whose blocks fit CD_BLOCK_BYTES, and the rows below a batch
    are formed one group at a time: no copy of the Hessian set is made.
    """
    H, bounds = hset.hessians, hset.partition.bounds
    d, c = W.shape
    if hset.partition.d_out != c:
        raise DimensionMismatch(f"group sizes {hset.partition.sizes} do not split {c} channels")
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
    m = C.shape[1]
    slot0 = np.arange(0, c * m, m)  # each channel's first value in C, flat
    B = np.empty((d, c))
    buf = np.empty(max(d * d, 2 * b * c))
    U = buf[:d * d].reshape(d, d)  # StrictUpper(Htil) of one group, rewritten in place
    delta = buf[:b * c].reshape(b, c)  # What - W of the batch's rows
    Hblk = np.empty((b, b, len(H)))  # Htil[s:e, s:e] of group k in [:, :, k]
    # row n of a batch: its stack (B row, n products), (Htil, delta, product) views per run
    steps = [(buf[b * c:(b + n + 1) * c].reshape(n + 1, c), []) for n in range(b)]
    sizes = [t - o for o, t in bounds]
    for size, run in itertools.groupby(range(len(bounds)), key=sizes.__getitem__):
        ks = list(run)
        cols = slice(bounds[ks[0]][0], bounds[ks[-1]][1])
        D3 = delta[:, cols].reshape(b, len(ks), size)
        for n, (T, views) in enumerate(steps):
            views.append((Hblk[n, :n, ks[0]:ks[-1] + 1, None], D3[:n],
                          T[1:, cols].reshape(n, len(ks), size)))
    dist, urow = np.empty((c, m)), np.empty(c)
    lower = np.tri(d, dtype=bool)  # the entries np.triu(., 1) zeroes
    for _ in range(cycles):
        for (o, e), Hk, dk, Dk in zip(bounds, H, diags, _group_deltas(W, C, A, bounds)):
            np.divide(Hk, dk[:, None], out=U)
            np.copyto(U, 0.0, where=lower)
            B[:, o:e] = U @ Dk
        for s in range(0, d, b):
            e = min(s + b, d)
            for k, (Hk, dk) in enumerate(zip(H, diags)):
                np.divide(Hk[s:e, s:e], dk[s:e, None], out=Hblk[:e - s, :e - s, k])
            for Bi, Wi, Ai, Di, (T, views) in zip(B[s:e], W[s:e], A[s:e], delta, steps):
                if len(T) > 1:  # B[i] plus the updates of rows s..i-1, in that order
                    T[0] = Bi
                    for h, D, out in views:
                        np.multiply(h, D, out=out)
                    if c > 1:  # rows one after another; -0.0 + x is x
                        np.add.reduce(T, axis=0, out=Bi, initial=-0.0)
                    else:  # numpy sums a lone column pairwise
                        Bi[:] = np.add.accumulate(T, axis=0)[-1]
                u = np.subtract(Wi, Bi, out=urow)
                if stats is not None and m > 1:
                    part = np.partition(np.abs(C - u[:, None]), 1, axis=1)
                    margin = float(np.min(part[:, 1] - part[:, 0]))
                    stats["min_margin"] = min(stats.get("min_margin", np.inf), margin)
                q = round_rows(u, C, out=dist)
                Ai[:] = q
                C.take(np.add(q, slot0, out=q), out=Di, mode="clip")  # "clip": unbuffered
                np.subtract(Di, Wi, out=Di)
            if e < d:
                for (o, t), Hk, dk in zip(bounds, H, diags):
                    Dk = np.ascontiguousarray(delta[:e - s, o:t])
                    B[e:, o:t] += (Hk[e:, s:e] / dk[e:, None]) @ Dk


def lnq_quantize(
    hset: HessianSet,
    W_block: np.ndarray,
    bits: int,
    T: int,
    K: int,
    init: tuple[np.ndarray, np.ndarray],
    stats: dict | None = None,
) -> QuantizedLayer:
    """Alternating minimization for one layer's channel groups.

    `W_block` holds the layer's d x c weights and `hset` its Hessian
    set: the consecutive groups (its partition) and one d x d Hessian
    per group, checked when the set was made and read here as it is.
    Each already includes its diagonal shift; no further damping is
    applied here. A Hessian that does not factor raises SingularHessian,
    a NotPositiveDefinite naming the set's layer, the group's index in
    the layer and the cause (exit 2 from the CLI); nothing retries with
    more damping. `bits` (1..8), `T` and `K` (>= 1) are checked first
    (InvalidSize). `init` is the starting (codebooks, assignments) pair,
    c x m and d x c arrays with m = 2**bits, which this call takes over:
    the layer is solved in place on them, and the returned layer holds
    them (a pair that is not writeable float64 and int64 C-contiguous,
    as `squeezellm_init` gives it, is converted once first). A caller
    that needs its init afterwards passes a copy.
    The returned layer holds the c channels in order, each with the
    non-increasing damped objective trace described in the module
    docstring, and gives the bits of one run per group.
    """
    m = codebook_size(bits)
    if T < 1:
        raise InvalidSize(f"T must be >= 1, got {T}")
    if K < 1:
        raise InvalidSize(f"K must be >= 1, got {K}")
    W = np.ascontiguousarray(W_block, dtype=np.float64)
    C = np.require(init[0], np.float64, ["C", "W"])
    A = np.require(init[1], np.int64, ["C", "W"])
    if W.ndim != 2:
        raise DimensionMismatch(f"W_block must be d x c, got ndim={W.ndim}")
    if not np.all(np.isfinite(W)):
        raise ValueError("W_block: non-finite entries")
    H, bounds = hset.hessians, hset.partition.bounds
    d, c = W.shape
    if H[0].shape != (d, d):  # the set holds one d
        raise DimensionMismatch(f"H is {H[0].shape}, weights have d_in={d}")
    if hset.partition.d_out != c:
        raise DimensionMismatch(f"group sizes {hset.partition.sizes} do not split {c} channels")
    if C.shape != (c, m) or A.shape != (d, c):
        raise DimensionMismatch(f"init codebooks {C.shape} and assignments {A.shape}, "
                                f"expected {(c, m)} and {(d, c)}")
    traces = []  # one length-c array of objectives per record()

    def record() -> None:
        traces.append(damped_objectives(H, _group_deltas(W, C, A, bounds)))

    LtW = np.empty((c, d))  # L^T w of every channel, formed in the first phase
    # the slots each channel's last solve started from and returned
    # (m <= 256, so one byte each)
    solved_from, solved_to = np.empty((2, d, c), dtype=np.uint8)
    first = True

    def factor(k: int) -> np.ndarray:
        try:
            L = cholesky(H[k])
        except NotPositiveDefinite as exc:
            raise SingularHessian(hset.layer_idx, k, zero_curvature(H[k]) or str(exc)) from exc
        if first:  # one gemv per channel, the bits of L.T @ w
            o, e = bounds[k]
            LtW[o:e] = np.matmul(L.T, np.ascontiguousarray(W[:, o:e].T)[:, :, None])[:, :, 0]
        return L

    def solve_codebooks() -> None:
        nonlocal first
        # same factor, w and slots: the same system, so its solve is reused
        pending = np.ones(c, dtype=bool) if first else np.any(A != solved_from, axis=0)
        solved_from[:] = A
        A[:, ~pending] = solved_to[:, ~pending]
        for chunk in _codebook_chunks(bounds, np.flatnonzero(pending), d, m):
            F = np.empty((len(chunk), d, d))
            for g, (k, _) in enumerate(chunk):
                F[g] = factor(k)
            chans = np.concatenate([js for _, js in chunk])
            if chans[-1] - chans[0] + 1 == chans.size:  # a range: views, not copies
                chans = slice(chans[0], chans[-1] + 1)
            group = np.repeat(np.arange(len(chunk)), [js.size for _, js in chunk])
            C[chans], A[:, chans] = codebook_closed_form(F, LtW[chans], A[:, chans], m, group)
        solved_to[:] = A
        first = False
        check_codebooks(C)  # once for the whole layer

    record()
    for _ in range(T):
        solve_codebooks()
        record()
        cd_cycle(hset, W, C, A, K, stats=stats)
        record()
    solve_codebooks()
    record()

    return QuantizedLayer(hset.layer_idx, bits, C, A, np.array(traces).T.tolist())
