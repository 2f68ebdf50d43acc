"""Independent oracles shared across the test suite.

These deliberately avoid the production code paths: the projection oracle
parametrizes the sum-to-one constraint explicitly and solves with lstsq, and
the batch projection oracle solves every subset of at most m+1 vertices for
all points at once (production runs Wolfe's algorithm and accepts a support
by its optimality certificate), the polygon oracle measures distances to
edges, the control oracle accumulates the neighbor sums agent by agent
(production uses the assembled matrix form), the leader-connectivity oracle
propagates component labels along edges (production searches the graph
once per topology and caches the result), the eigenvalue oracle runs
cyclic Jacobi rotations (production calls LAPACK through
numpy.linalg.eigvalsh), the trajectory oracle steps RK4 in a loop
(production evaluates the RK4 recurrence in closed form per eigenmode), the
stability oracle evaluates RK4's stability polynomial (production compares
dt lambda_max with one constant), and
the file-text oracles format one f-string per cell, row by row (production
formats each column block with one ``%`` and shares it between writers),
and the segment oracle, which the trajectory oracle steps through, rounds
each schedule time to the dt grid (production validates the grid once and
keeps ``Scenario.segments``). The projection case sampler lives here too,
since only tests draw it.
"""

import itertools

import numpy as np

from containment.geometry import LeaderSet


def projection_oracle(x, vertices):
    """Brute-force hull projection over all vertex subsets.

    For each subset, solve the affine least-squares problem with weights
    constrained to sum to one, keep candidates with nonnegative weights, and
    return (closest, half_squared_distance) of the best.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(vertices, dtype=float)
    k = v.shape[0]
    best_sq = np.inf
    best_closest = None
    for size in range(1, k + 1):
        for subset in itertools.combinations(range(k), size):
            vs = v[list(subset)]
            if size == 1:
                gamma = np.array([1.0])
            else:
                nbasis = np.zeros((size, size - 1))
                nbasis[0, :] = -1.0
                nbasis[1:, :] = np.eye(size - 1)
                a = vs.T @ nbasis
                b = x - vs[0]
                z = np.linalg.lstsq(a, b, rcond=None)[0]
                gamma = nbasis @ z
                gamma[0] += 1.0
            if (gamma >= -1e-12).all():
                closest = gamma @ vs
                sq = 0.5 * float(((x - closest) ** 2).sum())
                if sq < best_sq:
                    best_sq = sq
                    best_closest = closest
    return best_closest, best_sq


def projection_batch_oracle(points, vertices):
    """Half squared distances (N,) from the rows of ``points`` to the hull of
    ``vertices``, by subset enumeration.

    Every subset of at most m+1 vertices suffices (Caratheodory). For each,
    the sum-to-one least-squares weights of all points come from one KKT
    pseudo-inverse; candidates with weights >= -1e-12 compete, and the
    closest wins.
    """
    p = np.asarray(points, dtype=float)
    v = np.asarray(vertices, dtype=float)
    k, m = v.shape
    best = np.full(len(p), np.inf)
    for size in range(1, min(k, m + 1) + 1):
        for subset in itertools.combinations(range(k), size):
            vs = v[list(subset)]
            kkt = np.zeros((size + 1, size + 1))
            kkt[:size, :size] = vs @ vs.T
            kkt[:size, size] = 1.0
            kkt[size, :size] = 1.0
            rhs = np.vstack([vs @ p.T, np.ones(len(p))])
            gamma = (np.linalg.pinv(kkt) @ rhs)[:size]
            feasible = (gamma >= -1e-12).all(axis=0) & (
                np.abs(gamma.sum(axis=0) - 1.0) <= 1e-9
            )
            sq = 0.5 * ((p - gamma.T @ vs) ** 2).sum(axis=1)
            np.minimum(best, np.where(feasible, sq, np.inf), out=best)
    return best


def random_projection_case(rng, k_max: int = 5, m_max: int = 3):
    """A query point and leader set, occasionally degenerate on purpose."""
    m = int(rng.integers(1, m_max + 1))
    k = int(rng.integers(1, k_max + 1))
    pos = rng.uniform(-3.0, 3.0, size=(k, m))
    roll = rng.random()
    if roll < 0.15 and k >= 2:
        pos[int(rng.integers(0, k))] = pos[int(rng.integers(0, k))]  # may coincide
    elif roll < 0.3 and k >= 3:
        # force three collinear vertices
        a, b = pos[0], pos[1]
        pos[2] = a + rng.uniform(0.0, 1.0) * (b - a)
    x = rng.uniform(-5.0, 5.0, size=m)
    return x, LeaderSet(pos)


def polygon_distance(points, polygon):
    """Euclidean distance (N,) from planar points to a convex polygon whose
    vertices are listed counter-clockwise: 0 inside, else the smallest
    distance to one of its edges."""
    p = np.asarray(points, dtype=float)
    a = np.asarray(polygon, dtype=float)
    e = np.roll(a, -1, axis=0) - a
    rel = p[:, None, :] - a[None, :, :]
    t = np.clip((rel * e).sum(axis=2) / (e * e).sum(axis=1), 0.0, 1.0)
    dist = np.linalg.norm(rel - t[:, :, None] * e, axis=2).min(axis=1)
    inside = (e[:, 0] * rel[:, :, 1] - e[:, 1] * rel[:, :, 0] >= 0.0).all(axis=1)
    return np.where(inside, 0.0, dist)


def control_oracle(x, topo, leader_positions):
    """Velocity law in neighbor-sum form, accumulated agent by agent."""
    pos = np.asarray(leader_positions, dtype=float)
    n, m = topo.graph.n, pos.shape[1]
    pts = np.asarray(x, dtype=float).reshape(n, m)
    u = np.zeros_like(pts)
    for i, j, w in topo.graph.edges:
        u[i - 1] += w * (pts[j - 1] - pts[i - 1])
        u[j - 1] += w * (pts[i - 1] - pts[j - 1])
    for agent, q, w in topo.leaders.links:
        u[agent - 1] += w * (pos[q - 1] - pts[agent - 1])
    return u.ravel()


def leaderless_components(t):
    """Components of t's agent graph that no leader link reaches, as sorted
    agent tuples ordered by smallest member."""
    label = list(range(t.graph.n + 1))
    changed = True
    while changed:
        changed = False
        for i, j, _ in t.graph.edges:
            low = min(label[i], label[j])
            if label[i] != low or label[j] != low:
                label[i] = label[j] = low
                changed = True
    linked = {label[i] for i, _, _ in t.leaders.links}
    comps: dict[int, list[int]] = {}
    for i in range(1, t.graph.n + 1):
        if label[i] not in linked:
            comps.setdefault(label[i], []).append(i)
    return tuple(tuple(c) for _, c in sorted(comps.items()))


def is_bar_connected(t):
    """True iff every component of t's agent graph has a leader link."""
    return not leaderless_components(t)


def jacobi_eigenvalues(m, tol=1e-12, max_sweeps=100):
    """Eigenvalues of a symmetric matrix, ascending, by cyclic Jacobi rotations.

    Sweeps stop once the off-diagonal Frobenius norm drops below tol times
    the Frobenius norm of the input.
    """
    a = np.array(m, dtype=float)
    n = a.shape[0]
    norm = float(np.sqrt((a * a).sum()))
    if n <= 1 or norm == 0.0:
        return np.sort(np.diag(a).copy())
    thresh = tol * norm
    skip = thresh / n  # pairs below this cannot push off(A) above thresh
    for _ in range(max_sweeps):
        off = float(np.sqrt(2.0 * (np.triu(a, 1) ** 2).sum()))
        if off <= thresh:
            return np.sort(np.diag(a).copy())
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                # rotation angle that zeroes a[p, q]
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                a[p, q] = a[q, p] = 0.0
    raise ArithmeticError("Jacobi eigensolve did not converge")


def rk4_unstable(x: float) -> bool:
    """True iff RK4 amplifies the mode of x = dt * lambda on the real axis,
    |r(-x)| > 1 with r(z) = 1 + z p(z), evaluated on Python floats."""
    z = -x
    p = 1.0 + z / 2.0 + z * z / 6.0 + z ** 3 / 24.0
    return abs(1.0 + z * p) > 1.0


def grid_segments(s):
    """(first step, last step, topology id) of each schedule entry of ``s``,
    derived from its times by rounding to the dt grid, apart from
    ``Scenario.segments``."""
    starts = [round((t - s.t0) / s.dt) for t in s.schedule.times]
    ends = starts[1:] + [round((s.t_final - s.t0) / s.dt)]
    return [(a, b, pid) for a, b, (_, pid) in zip(starts, ends, s.schedule.entries)]


def rk4_loop(s):
    """States of ``simulate(s)`` by stepping classical RK4 one step at a time.

    Each step applies the four stages of x' = f - H x with the topology
    active at the step's start, in matrix form (production evaluates the
    same recurrence in closed form from an eigendecomposition of H).
    """
    from containment.graph import build_h

    mats = {pid: (build_h(t), t.link_weights @ s.leaders.positions)
            for pid, t in s.topologies}
    dt = s.dt
    pts = np.array(s.x_init, dtype=float)
    states = [pts.ravel()]
    for a, b, pid in grid_segments(s):
        h, f = mats[pid]
        for _ in range(a, b):
            k1 = f - h @ pts
            k2 = f - h @ (pts + 0.5 * dt * k1)
            k3 = f - h @ (pts + 0.5 * dt * k2)
            k4 = f - h @ (pts + dt * k3)
            pts = pts + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            states.append(pts.ravel())
    return np.array(states)


def trajectory_csv_oracle(traj):
    """The text ``write_trajectory`` writes: one ``f"{v:.9g}"`` per cell."""
    n, m = traj.n, traj.m
    header = ["t", *(f"a{i}_{d}" for i in range(1, n + 1) for d in range(1, m + 1)),
              "d_xi", "topology"]
    lines = [",".join(header)]
    for t, state, d, topo in zip(traj.times.tolist(), traj.states.tolist(),
                                 traj.d_xi.tolist(), traj.topologies.tolist()):
        lines.append(",".join([f"{t:.9g}", *(f"{v:.9g}" for v in state),
                               f"{d:.9g}", str(int(topo))]))
    return "\n".join(lines) + "\n"


def plot_data_oracle(traj, leaders=None):
    """The text ``write_plot_data`` writes: one ``f"{v:.9g}"`` per cell."""
    n, m = traj.n, traj.m
    times, states = traj.times.tolist(), traj.states.tolist()

    def block(title, rows):
        return "\n".join([title, *(" ".join(cells) for cells in rows)])

    def agent(row, i):
        return [f"{v:.9g}" for v in row[i * m : (i + 1) * m]]

    blocks = [block(f"# agent {i + 1} time series: t coordinates",
                    ([f"{t:.9g}", *agent(row, i)] for t, row in zip(times, states)))
              for i in range(n)]
    if leaders is not None:
        blocks.append(block("# leaders: id coordinates",
                            ([str(q), *(f"{v:.9g}" for v in pos)]
                             for q, pos in enumerate(leaders.positions.tolist(), 1))))
    if m == 2:
        blocks += [block(f"# agent {i + 1} path: x y", (agent(row, i) for row in states))
                   for i in range(n)]
    return "\n\n\n".join(blocks) + "\n"
