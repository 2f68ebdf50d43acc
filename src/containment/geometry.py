"""Convex hull of the leader positions: exact projection and the
half-squared-distance function used as the containment certificate.

Each ``LeaderSet`` owns one ``HullProjector`` (its cached ``projector``).
On a support S of leaders, the sum-to-one least-squares fit of a point x
gives weights gamma and the point c = gamma @ V_S of aff(S) closest to x.
A fit resolves x when every weight is >= -1e-12 and the
variational-inequality certificate max_v <x - c, v - c> <= tol holds over
the leaders v. For c in the hull and f(c) = 0.5 ||x - c||^2,
f(c) - f(p*) <= <x - c, p* - c> <= max_v <x - c, v - c>, so an accepted c
overstates sq_dist by at most tol = 1e-13 * r * (r + ||x - c||), with r the
largest leader coordinate about the projector's origin: a few hundred times
the rounding of the certificate itself. The fit's own rounding, which may put
c just off the hull, comes on top.

A batch in m >= 2 dimensions is solved in three stages:

* Wolfe's min-norm-point algorithm (P. Wolfe, Math. Programming 11, 1976)
  runs on every 16th point. Starting from the nearest leader, it adds the
  leader with the largest certificate term until the certificate holds;
  when the fit on the grown support has a negative weight, it steps back to
  the hull and drops the leader whose weight reached zero. Points that share
  a support are fitted together, and a leader already in the support is
  never added again.
* The supports Wolfe ended on are tried in order of frequency on the points
  not yet resolved.
* Wolfe finishes the points no support resolved.

Both the candidate stage and Wolfe fit through the pseudo-inverse of the
support's edge matrix [v_1 - v_0, ..., v_s - v_0], built once per support
when first used. Its weights sum to one by construction, and its condition
number is the square root of the Gram matrix's, so thin supports do not
garble the signs Wolfe steers by.

For m = 1 the hull is [min, max] and points are clipped onto it.

Distances carry a 1/2 factor: sq_dist = 0.5 * ||x - closest||^2, so decay
rates measured on trajectories compare directly against the contraction
bounds without rescaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

_FEAS_TOL = 1e-12  # weight slack of a candidate support's fit
_CERT_TOL = 1e-13  # certificate tolerance relative to r * (r + ||x - c||)
_HARVEST_STRIDE = 16  # Wolfe runs on every 16th point to find candidate supports
_MAX_ROUNDS = 500  # Wolfe rounds before the projection is declared stuck
_FAR = 8.0  # hulls this many radii from the origin are solved about their centroid


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

    @cached_property
    def projector(self) -> HullProjector:
        """Projector onto the hull of these positions, built on first use."""
        return HullProjector(self.positions)


class HullProjector:
    """Projection onto the hull of the rows of ``positions``. Supports are
    sorted tuples of row indices.

    Coordinates are taken about ``origin``: the origin itself, unless the hull
    lies farther from it than _FAR times its radius, where absolute
    coordinates would bury the hull's shape, and the certificate, in rounding;
    then the leaders' centroid. ``wolfe`` takes its points in those
    coordinates, as the columns of an (m, N) array, so every per-point
    reduction runs across rows.
    """

    def __init__(self, positions: np.ndarray):
        center = positions.mean(axis=0)
        far = np.abs(positions).max() > _FAR * np.abs(positions - center).max()
        self.origin = center if far else np.zeros_like(center)
        self.vertices = positions - self.origin
        self.radius = float(np.abs(self.vertices).max())
        self._edges: dict[tuple, np.ndarray] = {}

    def _fit(self, support: tuple, pt):
        """Sum-to-one least-squares weights (s, N) of the columns of pt on the
        s vertices of the support, from the pseudo-inverse of its edge matrix
        [v_1 - v_0, v_2 - v_0, ...]."""
        vs = self.vertices[list(support)]
        einv = self._edges.get(support)
        if einv is None:
            einv = self._edges[support] = np.linalg.pinv((vs[1:] - vs[0]).T)
        z = einv @ (pt - vs[0][:, None])
        return np.vstack([1.0 - z.sum(axis=0), z])

    def _gap(self, pt, c):
        """Certificate terms <x - c, v - c> (k, N) for the columns x of pt and
        hull points c, their tolerance (N,), and the residuals x - c."""
        g = pt - c
        gap = self.vertices @ g
        gap -= (g * c).sum(axis=0)
        gg = (g * g).sum(axis=0)
        return gap, _CERT_TOL * self.radius * (self.radius + np.sqrt(gg)), gg

    def wolfe(self, pt):
        """Convex weights (k, N) of the closest hull points to the columns of
        pt and the supports (k, N) they end on, by Wolfe's algorithm run on
        all columns at once."""
        v = self.vertices
        k, n = len(v), pt.shape[1]
        w = np.zeros((k, n))
        w[((v * v).sum(axis=1)[:, None] - 2.0 * v @ pt).argmin(axis=0), np.arange(n)] = 1.0
        supp = w > 0.0
        done = np.zeros(n, dtype=bool)
        refit = np.zeros(n, dtype=bool)  # support changed since w was fitted on it
        for _ in range(_MAX_ROUNDS):
            live = np.flatnonzero(~done & ~refit)
            if live.size:
                gap, tol, _ = self._gap(pt[:, live], v.T @ w[:, live])
                gap[supp[:, live]] = -np.inf  # never re-add a support vertex
                j = gap.argmax(axis=0)
                ok = gap[j, np.arange(live.size)] <= tol
                done[live[ok]] = True
                grow = live[~ok]
                supp[j[~ok], grow] = True
                refit[grow] = True
            if done.all():
                return w, supp
            rows = np.flatnonzero(refit)
            gamma = np.zeros((k, rows.size))
            keys, group = np.unique(np.packbits(supp[:, rows], axis=0), axis=1,
                                    return_inverse=True)
            for i in range(keys.shape[1]):
                sel = np.flatnonzero(group == i)
                idx = np.flatnonzero(supp[:, rows[sel[0]]])
                gamma[idx[:, None], sel] = self._fit(tuple(idx.tolist()), pt[:, rows[sel]])
            wr = w[:, rows]
            neg = gamma < 0.0
            # step from w toward gamma until the first weight reaches zero
            ratio = np.full(gamma.shape, np.inf)
            ratio[neg] = wr[neg] / (wr[neg] - gamma[neg])
            wr += np.minimum(ratio.min(axis=0), 1.0) * (gamma - wr)
            back = neg.any(axis=0)
            wr[ratio[:, back].argmin(axis=0), np.flatnonzero(back)] = 0.0
            np.maximum(wr, 0.0, out=wr)
            w[:, rows] = wr
            supp[:, rows[back]] = wr[:, back] > 0.0
            refit[rows[~back]] = False
        raise ArithmeticError(f"hull projection did not converge in {_MAX_ROUNDS} rounds")

    def sq_dist(self, p):
        """Half squared distances (N,) of the rows of p to the hull."""
        v = self.vertices
        pt = (p - self.origin).T.copy()
        if pt.shape[0] == 1:
            return 0.5 * (pt[0] - np.clip(pt[0], v.min(), v.max())) ** 2
        sq = np.empty(len(p))
        todo = np.arange(len(p))
        keys, counts = np.unique(np.packbits(self.wolfe(pt[:, ::_HARVEST_STRIDE])[1], axis=0),
                                 axis=1, return_counts=True)
        for key in keys.T[np.argsort(-counts, kind="stable")]:
            support = tuple(np.flatnonzero(np.unpackbits(key, count=len(v))).tolist())
            gamma = self._fit(support, pt[:, todo])
            fit = np.flatnonzero((gamma >= -_FEAS_TOL).all(axis=0))
            gap, tol, gg = self._gap(pt[:, todo[fit]], v[list(support)].T @ gamma[:, fit])
            ok = np.flatnonzero(gap.max(axis=0) <= tol)
            sq[todo[fit[ok]]] = 0.5 * gg[ok]
            todo = np.delete(todo, fit[ok])
            if not todo.size:
                return sq
        w, _ = self.wolfe(pt[:, todo])
        g = pt[:, todo] - v.T @ w
        sq[todo] = 0.5 * (g * g).sum(axis=0)
        return sq


def project_points(points, leaders: LeaderSet) -> np.ndarray:
    """Half squared Euclidean distance (N,) from each row of ``points`` to the
    hull of the leader positions. Raises ValueError on a shape mismatch or a
    non-finite coordinate."""
    p = np.asarray(points, dtype=float)
    if p.ndim != 2 or p.shape[1] != leaders.m:
        raise ValueError(f"points shape {p.shape} does not match dimension {leaders.m}")
    if not np.isfinite(p).all():
        raise ValueError("points must be finite")
    return leaders.projector.sq_dist(p)


def d_xi(x, leaders: LeaderSet) -> float:
    """Half squared distance from a stacked state to the per-agent hull product.

    The target set is a Cartesian product of one hull copy per agent, so the
    infimum splits into independent per-agent projections and this is just
    the sum of per-agent sq_dist values.
    """
    xv = np.asarray(x, dtype=float).reshape(-1)
    if xv.size == 0 or xv.size % leaders.m:
        raise ValueError(f"state length {xv.size} is not a multiple of m={leaders.m}")
    return float(project_points(xv.reshape(-1, leaders.m), leaders).sum())


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
