"""Dense linear-algebra kernel shared by every numerical module.

Everything runs in float64. Three operations cover all needs upstream:

* ``cholesky``: factor a symmetric positive-definite matrix, optionally
  after adding ``damping`` to the diagonal. The factor is the single
  entry point for solving SPD systems.
* ``least_squares``: minimum-norm least-squares solve via an orthogonal
  factorization (LAPACK SVD driver). Normal equations are never formed
  here; tests use them as an independent cross-check only.
* ``quad_form``: the scalar v^T H v.

Inputs are validated once at this boundary (``ensure_matrix`` /
``ensure_vector``) so the callers can stay free of shape boilerplate.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor of a damped SPD matrix.

    Satisfies L @ L.T == H + damping * I (up to roundoff) for the H it
    was computed from. `L` is lower triangular with strictly positive
    diagonal; `damping` records the diagonal shift that was applied.
    """

    L: Matrix
    damping: float

    @property
    def dim(self) -> int:
        return self.L.shape[0]


def cholesky(H: Matrix, damping: float = 0.0) -> CholeskyFactor:
    """Factor H + damping * I into L L^T.

    Args:
        H: symmetric matrix, d x d. Symmetry is checked to within 1e-10
            relative to the largest entry magnitude.
        damping: non-negative diagonal shift added before factoring.

    Returns:
        CholeskyFactor holding the lower-triangular L.

    Raises:
        NotPositiveDefinite: if the damped matrix has a pivot <= 0. The
            intended recovery is for the caller to raise the damping.
        ValueError: if damping < 0 or H is materially asymmetric.
    """
    H = ensure_matrix(H, "H")
    d = H.shape[0]
    if H.shape[1] != d:
        raise DimensionMismatch(f"H must be square, got {H.shape}")
    if damping < 0.0:
        raise ValueError(f"damping must be >= 0, got {damping}")
    scale = float(np.max(np.abs(H))) if d else 0.0
    if d and float(np.max(np.abs(H - H.T))) > _SYM_RTOL * max(scale, 1.0):
        raise ValueError("H is not symmetric to working tolerance")
    A = H if damping == 0.0 else H + damping * np.eye(d)
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(
            f"matrix of size {d} is not positive definite at damping={damping}"
        ) from exc
    return CholeskyFactor(L=L, damping=float(damping))


def least_squares(A: Matrix, b: Vector) -> Vector:
    """Minimum-norm least-squares solution of A x ~ b.

    Solved by the LAPACK SVD driver, which is deterministic and returns
    the minimum-norm solution when A is column-rank-deficient.

    Args:
        A: n x k matrix with n >= k.
        b: right-hand side of length n.

    Returns:
        x of length k minimizing ||A x - b||_2.

    Raises:
        DimensionMismatch: if shapes are inconsistent or n < k.
    """
    A = ensure_matrix(A, "A")
    b = ensure_vector(b, "b")
    n, k = A.shape
    if b.shape[0] != n:
        raise DimensionMismatch(f"b has length {b.shape[0]}, expected {n}")
    if n < k:
        raise DimensionMismatch(f"underdetermined system: n={n} < k={k}")
    x, *_ = np.linalg.lstsq(A, b, rcond=None)
    return x


def quad_form(H: Matrix, v: Vector) -> float:
    """Return v^T H v as a float."""
    H = ensure_matrix(H, "H")
    v = ensure_vector(v, "v")
    if H.shape[0] != H.shape[1]:
        raise DimensionMismatch(f"H must be square, got {H.shape}")
    if v.shape[0] != H.shape[0]:
        raise DimensionMismatch(f"v has length {v.shape[0]}, expected {H.shape[0]}")
    return float(v @ H @ v)
