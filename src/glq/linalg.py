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

``zero_curvature`` names the input features a damped Hessian gives no
curvature, the cause LNQ and the Hessian cache report for a set that
cannot be factored.

Matrix inputs are validated once at this boundary (``ensure_matrix``)
so the callers can stay free of shape boilerplate. The oracle's vector
check, ``oracle.ensure_vector``, lives with the only code that calls it.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite

# Convention: a Matrix is a 2-D, C-contiguous float64 ndarray.
Matrix = np.ndarray

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
    # max|H| is max(max H, -min H); H - H^T is exactly antisymmetric (IEEE
    # subtraction is), so its largest entry is its largest magnitude
    if d and float(np.max(H - H.T)) > _SYM_RTOL * max(float(H.max()), -float(H.min()), 1.0):
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


def zero_curvature(H: Matrix) -> str | None:
    """The input features of H with no curvature (diagonal entry <= 0),
    which no factorization survives, as a cause for SingularHessian; None
    when every diagonal entry is positive."""
    dead = np.flatnonzero(np.diag(H) <= 0.0)
    if dead.size == 0:
        return None
    return (f"{dead.size} of {H.shape[0]} input features have zero curvature and no "
            f"damping lifts them (first: feature {dead[0]})")
