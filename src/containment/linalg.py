"""Symmetric eigensolvers for small dense matrices.

Thin wrappers over LAPACK through ``numpy.linalg`` on float64 arrays. The
input must be square, finite and exactly symmetric, as every matrix the
library builds is, and goes to LAPACK as it is; an eigenvalue past the largest
double is a ValueError. Solving with the composite matrix is
``graph.Topology.solve``, which decides from the graph whether it is singular.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sym_eigenvalues", "sym_eigh"]


def _as_square_symmetric(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    if not (a == a.T).all():
        raise ValueError("matrix is not symmetric")
    return a


def _finite(lam: np.ndarray) -> np.ndarray:
    if not np.isfinite(lam).all():
        raise ValueError("an eigenvalue overflows a double")
    return lam


def sym_eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending.

    Raises ValueError for non-square, non-finite or asymmetric input, or overflow.
    """
    return _finite(np.linalg.eigvalsh(_as_square_symmetric(m)))


def sym_eigh(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of a symmetric matrix, ascending, and orthonormal
    eigenvectors as the matching columns.

    Raises ValueError for non-square, non-finite or asymmetric input, or overflow.
    """
    lam, v = np.linalg.eigh(_as_square_symmetric(m))
    return _finite(lam), v
