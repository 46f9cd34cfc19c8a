"""Dense linear-algebra kernel shared by every numerical module.

Everything runs in float64 on plain arrays. Two operations cover all
needs upstream:

* ``cholesky``: the lower-triangular factor L of a symmetric
  positive-definite matrix, L L^T = H. Callers pass a Hessian that
  already carries its damping; nothing is added here.
* ``least_squares``: minimum-norm least-squares solves of a stack of
  systems via an orthogonal factorization (LAPACK SVD driver), one
  driver call per system. Normal equations are never formed here;
  tests use them as an independent cross-check only.

``segment_sums`` gives numpy's 1-D ``ndarray.sum()`` of many
contiguous segments of one vector at once, bit for bit. numpy sums a
contiguous float64 array pairwise: fewer than 8 elements add in order
from 0.0; 8 to 128 add into eight lanes over the full blocks of 8
(lane j starts as element j), combine them as
((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) and then add the
leftover elements in order; more than 128 split at n // 2 rounded down
to a multiple of 8 and add the two halves' sums. The total is then
added to 0.0, so a sum of -0.0 alone is 0.0.

``zero_curvature`` names the input features a damped Hessian gives no
curvature, the cause LNQ and the Hessian cache report for a set that
cannot be factored.

Inputs are validated once at this boundary (``ensure_matrix`` /
``ensure_vector``) so the callers can stay free of shape boilerplate.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite

# Convention: a Matrix is a 2-D, C-contiguous float64 ndarray.
Matrix = np.ndarray
Vector = np.ndarray

# Relative tolerance for the symmetry check in `cholesky`.
_SYM_RTOL = 1e-10


def ensure_matrix(a: np.ndarray, name: str = "matrix") -> Matrix:
    """Return `a` as a C-contiguous float64 2-D array, validated finite."""
    arr = np.ascontiguousarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name}: expected a 2-D array, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: non-finite entries")
    return arr


def ensure_vector(v: np.ndarray, name: str = "vector") -> Vector:
    """Return `v` as a C-contiguous float64 1-D array, validated finite."""
    arr = np.ascontiguousarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name}: expected a 1-D array, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: non-finite entries")
    return arr


def cholesky(H: Matrix) -> Matrix:
    """The lower-triangular L with L L^T = H, its diagonal positive.

    Args:
        H: symmetric matrix, d x d. Symmetry is checked to within 1e-10
            relative to the largest entry magnitude.

    Raises:
        NotPositiveDefinite: if H has a pivot <= 0.
        ValueError: if H is materially asymmetric.
    """
    H = ensure_matrix(H, "H")
    d = H.shape[0]
    if H.shape[1] != d:
        raise DimensionMismatch(f"H must be square, got {H.shape}")
    scale = float(np.max(np.abs(H))) if d else 0.0
    if d and float(np.max(np.abs(H - H.T))) > _SYM_RTOL * max(scale, 1.0):
        raise ValueError("H is not symmetric to working tolerance")
    try:
        return np.linalg.cholesky(H)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"matrix of size {d} is not positive definite") from exc


def least_squares(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solutions of a stack of systems
    A_i x_i ~ b_i.

    Each system is solved by its own call of the LAPACK SVD driver
    (``np.linalg.lstsq``, rcond=None), which is deterministic and
    returns the minimum-norm solution when A_i is column-rank-deficient.
    The driver works on its own copy of A_i, so a system gives the same
    bits in any stack and in any memory layout; shape and finiteness
    are checked once for the whole stack.

    Args:
        A: r x n x k stack with n >= k, in any layout (a transposed
            view is not copied here).
        b: r x n right-hand sides.

    Returns:
        x, r x k: row i minimizes ||A_i x - b_i||_2.

    Raises:
        DimensionMismatch: if shapes are inconsistent or n < k.
        ValueError: if A or b has a non-finite entry.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if A.ndim != 3:
        raise DimensionMismatch(f"A: expected an r x n x k stack, got ndim={A.ndim}")
    if not np.all(np.isfinite(A)):
        raise ValueError("A: non-finite entries")
    if b.ndim != 2:
        raise DimensionMismatch(f"b: expected r x n right-hand sides, got ndim={b.ndim}")
    if not np.all(np.isfinite(b)):
        raise ValueError("b: non-finite entries")
    r, n, k = A.shape
    if b.shape[0] != r:
        raise DimensionMismatch(f"{b.shape[0]} right-hand sides for {r} systems")
    if b.shape[1] != n:
        raise DimensionMismatch(f"b has length {b.shape[1]}, expected {n}")
    if n < k:
        raise DimensionMismatch(f"underdetermined system: n={n} < k={k}")
    x = np.empty((r, k))
    for i in range(r):
        x[i] = np.linalg.lstsq(A[i], b[i], rcond=None)[0]
    return x


_PW_BLOCK = 128  # numpy's pairwise-sum block size


def segment_sums(v: Vector, starts: np.ndarray, lens: np.ndarray) -> Vector:
    """``v[s:s + n].sum()`` of every segment (s, n) of a 1-D float64 v,
    bit for bit, by numpy's rule (module docstring). Each level of
    splits runs for all segments at once, and each lane step for all
    segments that still have a block; no segment is padded."""
    return _pairwise(v, starts, lens) + 0.0


def _pairwise(v: Vector, starts: np.ndarray, lens: np.ndarray) -> Vector:
    """numpy's pairwise sum of every segment, before the final 0.0 +."""
    big = lens > _PW_BLOCK
    if big.any():
        s, n = starts[big], lens[big]
        half = n // 2
        half -= half % 8
        k = lens.shape[0] - s.shape[0]
        sums = _pairwise(v, np.concatenate([starts[~big], s, s + half]),
                         np.concatenate([lens[~big], half, n - half]))
        out = np.empty(lens.shape[0])
        out[~big] = sums[:k]
        out[big] = sums[k:k + s.shape[0]] + sums[k + s.shape[0]:]
        return out
    out = np.zeros(lens.shape[0])
    blocks = lens // 8
    # segments in descending order of block (then tail) count, so each
    # step below works on a prefix of them
    order = np.argsort(-blocks, kind="stable")
    nblk = blocks[order]
    k = np.count_nonzero(nblk)
    if k:
        base = starts[order[:k], None] + np.arange(8)
        r = v[base]
        for b, j in enumerate(_still_above(nblk[:k]), start=1):
            r[:j] += v[base[:j] + 8 * b]
        out[order[:k]] = (((r[:, 0] + r[:, 1]) + (r[:, 2] + r[:, 3]))
                          + ((r[:, 4] + r[:, 5]) + (r[:, 6] + r[:, 7])))
    rest = lens - 8 * blocks
    order = np.argsort(-rest, kind="stable")
    tail = (starts + 8 * blocks)[order]
    acc = out[order]
    for i, j in enumerate(_still_above(rest[order], 0)):
        acc[:j] += v[tail[:j] + i]
    out[order] = acc
    return out


def _still_above(desc: np.ndarray, first: int = 1) -> list[int]:
    """For b = first, first + 1, ... below the largest count in `desc`,
    how many of its entries exceed b."""
    if not desc.size:
        return []
    above = desc.size - np.cumsum(np.bincount(desc))
    return above[first:desc.max()].tolist()


def zero_curvature(H: Matrix) -> str | None:
    """The input features of H with no curvature (diagonal entry <= 0),
    which no factorization survives, as a cause for SingularHessian; None
    when every diagonal entry is positive."""
    dead = np.flatnonzero(np.diag(H) <= 0.0)
    if dead.size == 0:
        return None
    return (f"{dead.size} of {H.shape[0]} input features have zero curvature and no "
            f"damping lifts them (first: feature {dead[0]})")
