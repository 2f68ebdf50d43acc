"""Dense linear-algebra kernel for small symmetric systems.

Thin wrappers over LAPACK through ``numpy.linalg`` on float64 arrays, with
the input checked to be square, finite and symmetric first. The SPD solver
factors with Cholesky, so a failed factorization doubles as the "composite
matrix is not positive definite" signal that flags a topology whose agent
graph has a component with no leader link.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NotPositiveDefiniteError",
    "sym_eigenvalues",
    "solve_spd",
    "is_row_stochastic",
]

PIVOT_TOL = 1e-12
SYMMETRY_TOL = 1e-9


class NotPositiveDefiniteError(ArithmeticError):
    """A Cholesky pivot fell at or below the positive-definiteness floor."""


def _as_square_symmetric(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if a.size and not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    scale = float(np.abs(a).max(initial=0.0))
    if a.size and float(np.abs(a - a.T).max()) > SYMMETRY_TOL * (1.0 + scale):
        raise ValueError(f"{name} is not symmetric")
    return 0.5 * (a + a.T)


def sym_eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending.

    Raises ValueError for non-square, non-finite or asymmetric input.
    """
    return np.linalg.eigvalsh(_as_square_symmetric(m))


def solve_spd(h, rhs) -> np.ndarray:
    """Solve h @ x = rhs for symmetric positive definite h.

    Accepts a vector or matrix right-hand side and returns the same shape.
    Raises NotPositiveDefiniteError when the Cholesky factorization fails or
    a pivot (squared diagonal entry of the factor) is at or below
    ``PIVOT_TOL * max|h|``; the floor is relative, so scaling h by any
    positive factor leaves the decision unchanged.
    """
    a = _as_square_symmetric(h)
    try:
        pivots = np.diag(np.linalg.cholesky(a)) ** 2
    except np.linalg.LinAlgError as e:
        raise NotPositiveDefiniteError("matrix is not positive definite") from e
    low = np.flatnonzero(pivots <= PIVOT_TOL * np.abs(a).max(initial=0.0))
    if low.size:
        j = int(low[0])
        raise NotPositiveDefiniteError(
            f"pivot {pivots[j]:.3e} at index {j} (matrix is not positive definite)"
        )
    n = a.shape[0]
    b = np.asarray(rhs, dtype=float)
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"rhs shape {b.shape} does not match matrix order {n}")
    # numpy has no triangular solve, so the factor only decides definiteness
    return np.linalg.solve(a, b)


def is_row_stochastic(m, tol: float) -> bool:
    """True iff every entry is >= -tol and every row sums to 1 within tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    if a.size == 0:
        return True
    if (a < -tol).any():
        return False
    return bool((np.abs(a.sum(axis=1) - 1.0) <= tol).all())
