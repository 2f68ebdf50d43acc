"""Convex hull of the leader positions: membership, exact projection, and the
half-squared-distance function used as the containment certificate.

The projection is exact active-set by subset enumeration: for every nonempty
subset of at most m+1 vertices, solve the least-squares problem for
combination weights constrained to sum to one, keep candidates whose weights
are all nonnegative (within -1e-12), and take the closest. Larger subsets are
never needed (Caratheodory): if the closest point c lies in the relative
interior of a face F, then x - c is orthogonal to aff(F), and c is a convex
combination of some affinely independent S within the vertices of F with
|S| <= m+1, so the solve on S returns c with nonnegative weights; larger
subsets only add candidates that differ by rounding. Degenerate vertex sets
(coincident or collinear leaders) need no special case: rank-deficient
subsets get least-norm weights and such an S always attains the optimum.
Cost is sum_{s <= min(k, m+1)} C(k, s) subsets per distinct leader set (793
at k=12, m=3; all 2^k - 1 when k <= m+1), with k <= 12 enforced.

Distances carry a 1/2 factor: sq_dist = 0.5 * ||x - closest||^2, so decay
rates measured on trajectories compare directly against the contraction
bounds without rescaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_LEADERS = 12
_FEAS_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class LeaderSet:
    """k static leader positions in R^m, one per row of ``positions``."""

    positions: np.ndarray

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float)
        if pos.ndim != 2:
            raise ValueError("positions must be a (k, m) array")
        if pos.shape[0] < 1 or pos.shape[1] < 1:
            raise ValueError("need at least one leader in at least one dimension")
        if pos.shape[0] > MAX_LEADERS:
            raise ValueError(f"at most {MAX_LEADERS} leaders (subset enumeration)")
        if not np.isfinite(pos).all():
            raise ValueError("leader positions must be finite")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @property
    def k(self) -> int:
        return self.positions.shape[0]

    @property
    def m(self) -> int:
        return self.positions.shape[1]


@dataclass(frozen=True, eq=False)
class PolytopeProjection:
    """Closest hull point, its convex weights, and half the squared distance."""

    closest: np.ndarray
    weights: np.ndarray
    sq_dist: float


@lru_cache(maxsize=64)
def _subset_solvers(leaders: LeaderSet):
    """Per-subset KKT pseudo-inverses for the sum-to-one least-squares systems,
    over the subsets of at most m+1 leaders in increasing bitmask order."""
    v = leaders.positions
    solvers = []
    for mask in range(1, 2 ** leaders.k):
        if mask.bit_count() > leaders.m + 1:
            continue
        idx = np.array([q for q in range(leaders.k) if mask >> q & 1])
        vs = v[idx]
        s = len(idx)
        kkt = np.zeros((s + 1, s + 1))
        kkt[:s, :s] = vs @ vs.T
        kkt[:s, s] = 1.0
        kkt[s, :s] = 1.0
        solvers.append((idx, vs, np.linalg.pinv(kkt)))
    return solvers


def project_points(points, leaders: LeaderSet):
    """Project each row of ``points`` onto the hull of the leader positions.

    Returns (closest (N, m), weights (N, k), sq_dist (N,)) where sq_dist is
    half the squared Euclidean distance per point. Raises ValueError on a
    shape mismatch or a non-finite coordinate.
    """
    p = np.asarray(points, dtype=float)
    if p.ndim != 2 or p.shape[1] != leaders.m:
        raise ValueError(f"points shape {p.shape} does not match dimension {leaders.m}")
    if not np.isfinite(p).all():
        raise ValueError("points must be finite")
    n = p.shape[0]
    best_sq = np.full(n, np.inf)
    best_w = np.zeros((n, leaders.k))
    best_c = np.zeros((n, leaders.m))
    for idx, vs, minv in _subset_solvers(leaders):
        s = len(idx)
        rhs = np.empty((s + 1, n))
        rhs[:s] = vs @ p.T
        rhs[s] = 1.0
        gamma = (minv @ rhs)[:s]
        feasible = (gamma >= -_FEAS_TOL).all(axis=0) & (
            np.abs(gamma.sum(axis=0) - 1.0) <= 1e-9
        )
        if not feasible.any():
            continue
        closest = gamma.T @ vs
        sq = 0.5 * ((p - closest) ** 2).sum(axis=1)
        rows = np.flatnonzero(feasible & (sq < best_sq))
        if rows.size:
            best_sq[rows] = sq[rows]
            best_c[rows] = closest[rows]
            best_w[rows] = 0.0
            best_w[rows[:, None], idx] = gamma[:, rows].T
    np.maximum(best_w, 0.0, out=best_w)  # clamp -1e-12-level noise
    return best_c, best_w, best_sq


def project(x, leaders: LeaderSet) -> PolytopeProjection:
    """Euclidean projection of one point onto the hull of the leader positions.

    The result is certified by the variational inequality: the outward
    residual x - closest has nonpositive inner product with every direction
    v - closest toward a vertex v.
    """
    xv = np.asarray(x, dtype=float).reshape(-1)
    if xv.shape != (leaders.m,):
        raise ValueError(f"point has {xv.size} coordinates, expected {leaders.m}")
    closest, weights, sq = project_points(xv[None, :], leaders)
    c, w = closest[0], weights[0]
    g = xv - c
    scale = max(
        1.0,
        float(np.abs(xv).max(initial=0.0)),
        float(np.abs(leaders.positions).max()),
    )
    viol = float(((leaders.positions - c) @ g).max())
    if viol > 1e-9 * scale * scale:
        raise ArithmeticError(f"projection optimality certificate failed ({viol:.3e})")
    c.setflags(write=False)
    w.setflags(write=False)
    return PolytopeProjection(closest=c, weights=w, sq_dist=float(sq[0]))


def d_xi(x, leaders: LeaderSet) -> float:
    """Half squared distance from a stacked state to the per-agent hull product.

    The target set is a Cartesian product of one hull copy per agent, so the
    infimum splits into independent per-agent projections and this is just
    the sum of per-agent sq_dist values.
    """
    xv = np.asarray(x, dtype=float).reshape(-1)
    if xv.size == 0 or xv.size % leaders.m:
        raise ValueError(f"state length {xv.size} is not a multiple of m={leaders.m}")
    return float(project_points(xv.reshape(-1, leaders.m), leaders)[2].sum())


def in_hull(x, leaders: LeaderSet, tol: float) -> bool:
    """True iff x is within Euclidean distance tol of the hull."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return project(x, leaders).sq_dist <= 0.5 * tol * tol


def collinearity_residual(points) -> float:
    """Largest distance from the points to their total-least-squares line.

    Near-coincident point clouds report ~0 since any line through the cluster
    fits.
    """
    p = np.asarray(points, dtype=float)
    if p.ndim != 2 or p.shape[0] < 2:
        raise ValueError("need at least two points")
    centered = p - p.mean(axis=0)
    if float(np.abs(centered).max(initial=0.0)) == 0.0:
        return 0.0
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    along = np.outer(centered @ vt[0], vt[0])
    resid = centered - along
    return float(np.sqrt((resid ** 2).sum(axis=1)).max())
