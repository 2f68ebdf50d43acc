"""Symmetric eigensolvers for small dense matrices.

Thin wrappers over LAPACK through ``numpy.linalg`` on float64 arrays, with
the input checked to be square, finite and symmetric first. Solving with
the composite matrix is ``graph.Topology.solve``, which decides from the
graph whether the matrix is singular.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sym_eigenvalues", "sym_eigh"]

SYMMETRY_TOL = 1e-9


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


def sym_eigh(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of a symmetric matrix, ascending, and orthonormal
    eigenvectors as the matching columns.

    Raises ValueError for non-square, non-finite or asymmetric input.
    """
    lam, v = np.linalg.eigh(_as_square_symmetric(m))
    return lam, v
