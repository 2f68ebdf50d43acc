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

A batch in m >= 2 dimensions is solved in up to three stages:

* The harvest: Wolfe's min-norm-point algorithm (P. Wolfe, Math.
  Programming 11, 1976) runs on _HARVEST = 128 rows spread evenly over the
  batch, or on every row of a smaller batch, which then needs no other
  stage. Starting from the nearest leader, it adds the leader with the
  largest certificate term until the certificate holds; when the fit on the
  grown support has a negative weight, it steps back to the hull and drops
  the leader whose weight reached zero. Each round fits every point on its
  own support in one gathered pass, and a leader already in the support is
  never added again.
* The supports the harvest ended on are tried in order of frequency on the
  rows not harvested.
* Wolfe finishes the rows no support resolved.

Every distance the projector returns comes from one fit kernel (``_fit``,
``_combine`` and ``_sq_norm``), which forms each term elementwise in a fixed
order instead of calling BLAS, whose last bits depend on the batch. The
candidate stage runs it with one support for all its columns; the points
Wolfe finished run it in one gathered pass, each column on the support it
ended on. So a point's distance depends only on the point and the support
that resolved it, not on the stage or on the rest of the batch. A point
outside the hull ended on the same support in a batch and alone in every
sample tried. A point inside the hull gets exactly 0, at any stage, when
its fit has no negative weight on a support flagged full-rank: m + 1
leaders whose edge matrix has full rank and a condition number of at most
about _COND, so the weights are within about _COND eps of the exact ones and
the point lies in the simplex up to rounding. The candidate stage then skips
the certificate. Gilbert, Johnson and Keerthi's distance algorithm (IEEE J.
Robotics and Automation 4(2), 1988) stops there too.

One kernel makes every fit, the ones Wolfe steers by included, from the
pseudo-inverse of the support's edge matrix [v_1 - v_0, ..., v_s - v_0],
built once per support, when first used, by one stacked ``np.linalg.pinv``
call per support size. Its weights sum to one by construction, and its
condition number is the square root of the Gram matrix's, so thin supports
do not garble the signs Wolfe steers by. Gathered supports are padded to
the widest with zero edges, which weigh exactly 0, so padding leaves every
bit as it is.

For m = 1 the hull is [min, max] and points are clipped onto it.

Distances carry a 1/2 factor: sq_dist = 0.5 * ||x - closest||^2, so decay
rates measured on trajectories compare directly against the contraction
bounds without rescaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

_FEAS_TOL = 1e-12  # weight slack of a candidate support's fit
_CERT_TOL = 1e-13  # certificate tolerance relative to r * (r + ||x - c||)
_HARVEST = 128  # rows, spread evenly over a batch, that Wolfe runs on first
_MAX_ROUNDS = 500  # Wolfe rounds before the projection is declared stuck
_FAR = 8.0  # hulls this many radii from the origin are solved about their centroid
_COND = 1e6  # largest condition estimate of a support flagged full-rank


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
    """Projection onto the hull of the rows of ``positions``. A support is a
    boolean column over the leaders, or the cache row that holds it.

    Coordinates are taken about ``origin``: the origin itself, unless the hull
    lies farther from it than _FAR times its radius, where absolute
    coordinates would bury the hull's shape, and the certificate, in rounding;
    then the leaders' centroid. ``wolfe`` takes its points in those
    coordinates, as the columns of an (m, N) array, so every per-point
    reduction runs across rows.

    The cache keeps one row per support seen: ``_index[r]`` is its
    vertices in ascending order, padded with k, ``_einv[r]`` its
    pseudo-inverse, zero-padded to a common number of edges, and
    ``_full[r]`` its full-rank flag; ``_row`` maps a support's packed vertex
    mask to its row. So the supports of many points are gathered by row,
    without a loop over them.
    """

    def __init__(self, positions: np.ndarray):
        center = positions.mean(axis=0)
        far = np.abs(positions).max() > _FAR * np.abs(positions - center).max()
        self.origin = center if far else np.zeros_like(center)
        self.vertices = positions - self.origin
        self.radius = float(np.abs(self.vertices).max())
        k, m = self.vertices.shape
        self._row: dict[bytes, int] = {}
        self._einv = np.zeros((0, min(k, m + 1) - 1, m))
        self._index = np.zeros((0, min(k, m + 1)), dtype=np.intp)
        self._full = np.zeros(0, dtype=bool)

    def _rows(self, supp):
        """Cache rows (U,) of the distinct supports among the boolean columns
        (k, N) of supp, the position among them of each column's support, and
        how many columns have each."""
        packed = np.packbits(supp, axis=0)
        keys = np.ascontiguousarray(packed.T).view(np.dtype((np.void, len(packed))))[:, 0]
        keys, first, group, counts = np.unique(keys, return_index=True, return_inverse=True,
                                               return_counts=True)
        keys = keys.tolist()
        new = [i for i, key in enumerate(keys) if key not in self._row]
        if new:
            self._build([keys[i] for i in new], supp[:, first[new]])
        return np.array([self._row[key] for key in keys], dtype=np.intp), group, counts

    def _build(self, keys, cols):
        """Cache the supports given by the boolean columns (k, U) of cols, with
        one stacked ``np.linalg.pinv`` call per support size, and flag those
        of m + 1 leaders full-rank from each edge matrix e and pseudo-inverse
        p: trace(p e) is the rank of e, and as max|e| <= 2 radius, m^2 times
        2 radius max|p| bounds its condition number ||e||_2 ||p||_2 without
        squaring entries that might overflow."""
        sizes = cols.sum(axis=0)
        k, m = self.vertices.shape
        old, new = len(self._index), len(keys)
        width = max(self._einv.shape[1], int(sizes.max()) - 1)
        einv = np.zeros((old + new, width, m))
        einv[:old, :self._einv.shape[1]] = self._einv
        index = np.full((old + new, width + 1), k, dtype=np.intp)
        index[:old, :self._index.shape[1]] = self._index
        full = np.concatenate([self._full, np.zeros(new, dtype=bool)])
        for size in set(sizes.tolist()):  # np.unique would import numpy.ma
            of = np.flatnonzero(sizes == size)
            idx = np.nonzero(cols[:, of].T)[1].reshape(len(of), size)
            vs = self.vertices[idx]
            d = vs[:, 1:] - vs[:, :1]  # the transposed edge matrices
            einv[old + of, :size - 1] = p = np.linalg.pinv(d.transpose(0, 2, 1))
            index[old + of, :size] = idx
            if size == m + 1:
                p, d = p.reshape(len(of), -1), d.reshape(len(of), -1)
                full[old + of] = ((p * d).sum(axis=1) > m - 0.5) & (
                    2.0 * self.radius * np.abs(p).max(axis=1) <= _COND)
        self._row.update(zip(keys, range(old, old + new)))
        self._einv, self._index, self._full = einv, index, full

    def _fit_rows(self, at, x):
        """Vertices (s, m, N) of the supports in cache rows ``at``, and the
        weights (s, N) of each column of x on its own support, gathered in
        one pass. Supports are padded to the widest: a padded slot weighs
        exactly 0, so any vertex may stand in for it."""
        verts = self.vertices.take(self._index[at].T, axis=0, mode="clip").transpose(0, 2, 1)
        return verts, _fit(self._einv[at].transpose(1, 2, 0), x - verts[0])

    def _gap(self, g, c):
        """Certificate terms <x - c, v - c> (k, N) for hull points c and the
        residuals g = x - c of points x."""
        gc = (g * c).sum(axis=0)  # before the (k, N) terms: a large batch peaks there
        gap = self.vertices @ g
        gap -= gc
        return gap

    def _tol(self, gg):
        """Certificate tolerances (N,) at the squared residual norms gg."""
        return _CERT_TOL * self.radius * (self.radius + np.sqrt(gg))

    def wolfe(self, pt):
        """Supports (k, N) of the closest hull points to the columns of pt,
        by Wolfe's algorithm run on all columns at once."""
        v = self.vertices
        k, n = len(v), pt.shape[1]
        w = np.zeros((k, n))
        w[((v * v).sum(axis=1)[:, None] - 2.0 * v @ pt).argmin(axis=0), np.arange(n)] = 1.0
        supp = w > 0.0
        done = np.zeros(n, dtype=bool)
        refit = np.zeros(n, dtype=bool)  # support changed since w was fitted on it
        for _ in range(_MAX_ROUNDS):
            self._grow(pt, w, supp, done, refit)
            if done.all():
                return supp
            self._step(pt, w, supp, refit)
        raise ArithmeticError(f"hull projection did not converge in {_MAX_ROUNDS} rounds")

    def _grow(self, pt, w, supp, done, refit):
        """Wolfe's major cycle on the points neither done nor waiting for a
        refit: mark done those whose certificate holds at w, and add to the
        support of each other the leader with the largest certificate term."""
        live = np.flatnonzero(~done & ~refit)
        if not live.size:
            return
        c = self.vertices.T @ w[:, live]
        g = pt[:, live] - c
        gap = self._gap(g, c)
        gap[supp[:, live]] = -np.inf  # never re-add a support vertex
        j = gap.argmax(axis=0)
        ok = gap[j, np.arange(live.size)] <= self._tol(_sq_norm(g))
        done[live[ok]] = True
        grow = live[~ok]
        supp[j[~ok], grow] = True
        refit[grow] = True

    def _step(self, pt, w, supp, refit):
        """Wolfe's minor cycle on the points waiting for a refit: fit each on
        its support and step from w toward the fit. A fit with a negative
        weight stops the step where the first weight reaches zero, and that
        leader leaves the support; a fit without one is taken whole, and the
        point goes back to the major cycle."""
        cols = np.flatnonzero(refit)
        rows, group, _ = self._rows(supp[:, cols])
        at = rows[group]
        gamma = np.zeros((len(w) + 1, cols.size))  # row k takes the padding
        gamma[self._index[at].T, np.arange(cols.size)] = self._fit_rows(at, pt[:, cols])[1]
        gamma = gamma[:-1]
        wr = w[:, cols]
        neg = gamma < 0.0
        ratio = np.full(gamma.shape, np.inf)
        ratio[neg] = wr[neg] / (wr[neg] - gamma[neg])
        wr += np.minimum(ratio.min(axis=0), 1.0) * (gamma - wr)
        back = neg.any(axis=0)
        wr[ratio[:, back].argmin(axis=0), np.flatnonzero(back)] = 0.0
        np.maximum(wr, 0.0, out=wr)
        w[:, cols] = wr
        supp[:, cols[back]] = wr[:, back] > 0.0
        refit[cols[~back]] = False

    def _accept(self, row: int, pt, cols, sq):
        """Set sq at the columns ``cols`` of pt that the fit on the support in
        cache row ``row`` resolves, and return the others: 0 where the fit
        has no negative weight on a full-rank support, else the distance the
        certificate accepts."""
        s = np.count_nonzero(self._index[row] < len(self.vertices))
        verts = self.vertices[self._index[row, :s], :, None]
        # columns by take: indexing [:, cols] copies them several times slower
        gamma = _fit(self._einv[row, :s - 1, :, None], pt.take(cols, axis=1) - verts[0])
        low = gamma.min(axis=0)
        zero = 0.0 if self._full[row] else np.inf
        inside = np.flatnonzero(low >= zero)
        sq[cols[inside]] = 0.0
        fit = np.flatnonzero((low >= -_FEAS_TOL) & (low < zero))
        gamma = gamma.take(fit, axis=1)
        c = _combine(verts, gamma)
        del gamma, low  # a large batch peaks in the certificate below
        g = pt.take(cols[fit], axis=1) - c
        gg = _sq_norm(g)
        ok = self._gap(g, c).max(axis=0) <= self._tol(gg)
        fit = fit[ok]
        sq[cols[fit]] = 0.5 * gg[ok]
        rest = np.ones(cols.size, dtype=bool)
        rest[inside] = rest[fit] = False
        return cols[rest]

    def _resolve(self, pt, cols, sq):
        """Set sq at the columns ``cols`` of pt by Wolfe: each point's distance
        comes from the fit on the support it ends on, by the kernel the
        candidate stage uses, in one pass, and is 0 inside a full-rank one.
        Return the cache rows of those supports, most frequent first."""
        rows, group, counts = self._rows(self.wolfe(pt.take(cols, axis=1)))
        # sorted before the gather: a small batch would peak in argsort
        frequent = rows[np.argsort(-counts, kind="stable")].tolist()
        x = pt.take(cols, axis=1)  # not held through _rows, where small batches peak
        at = rows[group]
        verts, gamma = self._fit_rows(at, x)
        d = 0.5 * _sq_norm(x - _combine(verts, gamma))
        d[self._full[at] & (gamma >= 0.0).all(axis=0)] = 0.0
        sq[cols] = d
        return frequent

    def sq_dist(self, p):
        """Half squared distances (N,) of the rows of p to the hull."""
        pt = (p - self.origin).T.copy()
        if pt.shape[0] == 1:
            return 0.5 * (pt[0] - np.clip(pt[0], self.vertices.min(), self.vertices.max())) ** 2
        n = len(p)
        sq = np.empty(n)
        harvest = np.arange(min(n, _HARVEST)) * n // min(n, _HARVEST)
        candidates = self._resolve(pt, harvest, sq)
        if n == harvest.size:
            return sq
        todo = np.delete(np.arange(n), harvest)
        for row in candidates:
            todo = self._accept(row, pt, todo, sq)
            if not todo.size:
                return sq
        self._resolve(pt, todo, sq)
        return sq


def _fit(einv, d):
    """Sum-to-one least-squares weights (s, N) of points x, given as their
    offsets d = x - v_0 (m, N) from their supports' first vertices, from the
    pseudo-inverses einv (s - 1, m, ·) of the supports' edge matrices
    [v_1 - v_0, v_2 - v_0, ...]: one support for every column when the last
    axis has length 1, one per column when it has length N. Each term is
    formed elementwise in a fixed order, z_i = sum_j einv[i, j] d_j and
    gamma_0 = 1 - sum_i z_i, so a column's weights depend neither on the other
    columns nor on padding: a zero-padded edge weighs exactly 0."""
    gamma = np.zeros((len(einv) + 1, d.shape[1]))
    z, term = gamma[1:], np.empty_like(gamma[1:])
    np.multiply(einv[:, 0], d[0], out=z)
    for j in range(1, len(d)):
        z += np.multiply(einv[:, j], d[j], out=term)
    total = gamma[0]
    for zi in z:
        total += zi
    np.subtract(1.0, total, out=total)
    return gamma


def _combine(verts, gamma):
    """Points c (m, N) = sum over slots of verts[slot] * gamma[slot], added
    slot by slot, for the weights gamma (s, N) of ``_fit`` and the supports'
    vertices verts (s, m, ·)."""
    c = verts[0] * gamma[0]
    for v, g in zip(verts[1:], gamma[1:]):
        c += v * g
    return c


def _sq_norm(g):
    """Squared norms (N,) of the columns of g, added row by row."""
    return reduce(np.add, g * g)


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
    if xv.size % leaders.m:
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
