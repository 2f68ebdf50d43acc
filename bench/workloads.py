"""The three benchmark workloads: seeded inputs, one op each, output checks.

A workload is built from ``--seed`` alone by ``build(name, seed, workdir)``.
It hands the program only plain data it generated (argv lists, trial
indices, edge and position arrays); every ``containment`` object is built
inside the op, as a CLI run would build it. ``Workload.round`` is the fixed
op sequence a run cycles through; it is ordered so that any prefix of it
mixes the op kinds in the same proportion, because a run stops at a
deadline, not at the end of a round.

Each op is looked up through its module attribute at call time (for example
``analysis.check_theorem1``), so the tracer's wrappers are what get called
when tracing is on.

Checks run outside the timed region. paper-example2's check reads the
trajectory CSV and applies criterion 2's bounds with its own numpy code, so
a broken projection cannot certify itself; the other two read the program's
verification reports.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from containment import analysis, cli, dynamics, geometry, graph, sampling

@dataclass
class Workload:
    name: str
    round: list  # op arguments, cycled in this order until time is up
    run_op: Callable[[Any], Any]
    check: Callable[[Any, Any], bool]
    alloc_ops: int  # leading ops of the round that the memory pass runs
    reset: Callable[[], None] = lambda: None  # untimed, before each op


# --- paper-example2: the headline CLI path ---------------------------------

# Leader triangle of the paper's example 2: the reference the check uses.
EXAMPLE2_LEADERS = np.array([[1.0, 1.0], [2.0, 2.0], [1.0, 2.0]])
CRITERION2_BOUND = 1e-3


def triangle_distance(p: np.ndarray, tri: np.ndarray) -> float:
    """Euclidean distance from planar point p to the filled triangle tri."""
    a, b, c = tri
    cross = lambda u, v, w: (v[0] - u[0]) * (w[1] - u[1]) - (v[1] - u[1]) * (w[0] - u[0])
    signs = [cross(a, b, p), cross(b, c, p), cross(c, a, p)]
    if min(signs) >= 0.0 or max(signs) <= 0.0:
        return 0.0
    best = np.inf
    for u, v in ((a, b), (b, c), (c, a)):
        t = np.clip(np.dot(p - u, v - u) / np.dot(v - u, v - u), 0.0, 1.0)
        best = min(best, float(np.linalg.norm(p - (u + t * (v - u)))))
    return best


def line_residual(points: np.ndarray) -> float:
    """Largest distance from the points to their total-least-squares line."""
    centered = points - points.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    resid = centered - np.outer(centered @ vt[0], vt[0])
    return float(np.sqrt((resid ** 2).sum(axis=1)).max())


def _paper_example2(workdir: Path) -> Workload:
    out = workdir / "paper-example2"
    csv = out / "example2.trajectory.csv"
    dat = out / "example2.replot.dat"
    paper_argv = ["paper", "--example", "2", "--out", str(out)]
    plot_argv = ["plotdata", str(csv), "--out", str(dat), "--scenario", "builtin:example2"]

    def run_op(_):
        return cli.main(paper_argv), cli.main(plot_argv)

    def reset():
        shutil.rmtree(out, ignore_errors=True)

    first = {}  # the run's first CSV, and whether it met criterion 2

    def check(_, codes) -> bool:
        if codes != (0, 0) or not dat.is_file():
            return False
        data = csv.read_bytes()
        if not first:
            last = data.rstrip(b"\n").rsplit(b"\n", 1)[1].split(b",")
            final = np.array([float(v) for v in last[1:-2]]).reshape(5, 2)
            dist = max(triangle_distance(p, EXAMPLE2_LEADERS) for p in final)
            first["csv"] = data
            first["ok"] = (dist <= CRITERION2_BOUND
                           and line_residual(final[1:]) <= CRITERION2_BOUND)
        return first["ok"] and data == first["csv"]

    return Workload("paper-example2", [None], run_op, check, 1, reset)


# --- verify-campaign: many small seeded trials ------------------------------

# The round is `verify theorem1 --random 800` and `verify theorem2 --random 400`
# interleaved; its first 150 ops are the --random 100 and --random 50
# campaigns. Trial cost spans 2-80 ms, so a run needs many distinct trials
# for its median to stop depending on which trials the seed drew.
THEOREM2_TRIALS = 400


def _verify_campaign(seed: int) -> Workload:
    # theorem1 trials 2j and 2j+1, then theorem2 trial j: a 2:1 mix in every prefix
    trials = []
    for j in range(THEOREM2_TRIALS):
        trials += [("theorem1", 2 * j), ("theorem1", 2 * j + 1), ("theorem2", j)]

    def run_op(trial):
        kind, i = trial
        rng = sampling.rng_for(seed, i)
        if kind == "theorem1":
            return analysis.check_theorem1(sampling.settle_scenario(rng, connected=i % 2 == 0))
        return analysis.check_theorem2(sampling.random_switched_scenario(rng))

    return Workload("verify-campaign", trials, run_op,
                    lambda _, rep: rep.passed is True, alloc_ops=60)


# --- large-swarm: one big leader-connected certification --------------------

SWARM_N, SWARM_K, SWARM_M = 96, 12, 3
SWARM_STEPS = 100
SWARM_INSTANCES = 4
EQUILIBRIUM_BOUND = 1e-9


# Unit icosahedron: 12 vertices, all extreme. Jittering it keeps the hull's
# face structure, and so the projection's work per point, the same from seed
# to seed, where 12 uniform points give hulls of 6 to 12 vertices.
_PHI = (1.0 + 5.0 ** 0.5) / 2.0
ICOSAHEDRON = np.array(
    [(0.0, a, b * _PHI) for a in (-1, 1) for b in (-1, 1)]
    + [(a, b * _PHI, 0.0) for a in (-1, 1) for b in (-1, 1)]
    + [(a * _PHI, 0.0, b) for a in (-1, 1) for b in (-1, 1)]
) / np.sqrt(1.0 + _PHI ** 2)


def swarm_instance(rng: np.random.Generator) -> dict:
    """Sparse connected graph (spanning tree plus n extra edges), links for
    n/4 agents, leaders on a jittered icosahedron, agents in a box around it,
    and dt = 0.5 / (Gershgorin bound on lambda_max)."""
    n, k, m = SWARM_N, SWARM_K, SWARM_M
    order = rng.permutation(n) + 1
    edges: dict[tuple[int, int], float] = {}
    for idx in range(1, n):
        a, b = sorted((int(order[idx]), int(order[rng.integers(0, idx)])))
        edges[(a, b)] = float(rng.uniform(0.5, 2.0))
    while len(edges) < 2 * n - 1:
        a, b = sorted(int(v) for v in rng.choice(n, size=2, replace=False) + 1)
        edges.setdefault((a, b), float(rng.uniform(0.5, 2.0)))
    links = []
    for agent in sorted(int(a) for a in rng.choice(n, size=n // 4, replace=False) + 1):
        for q in sorted(int(q) for q in rng.choice(k, size=int(rng.integers(1, 4)),
                                                  replace=False) + 1):
            links.append((agent, q, float(rng.uniform(0.5, 2.0))))
    degree = np.zeros(n)
    for (a, b), w in edges.items():
        degree[a - 1] += w
        degree[b - 1] += w
    linked = np.zeros(n)
    for a, _, w in links:
        linked[a - 1] += w
    dt = 0.5 / float((2.0 * degree + linked).max())
    return {
        "edges": tuple((a, b, w) for (a, b), w in sorted(edges.items())),
        "links": tuple(links),
        "leaders": 1.0 + ICOSAHEDRON + rng.uniform(-0.05, 0.05, size=(k, m)),
        "x_init": rng.uniform(-2.0, 8.0, size=(n, m)),
        "dt": dt,
    }


def _large_swarm(seed: int) -> Workload:
    rng = np.random.default_rng([seed, SWARM_N])
    instances = [swarm_instance(rng) for _ in range(SWARM_INSTANCES)]

    def run_op(inst):
        g = graph.AgentGraph(SWARM_N, inst["edges"])
        topo = graph.Topology(g, graph.LeaderLinks(SWARM_N, SWARM_K, inst["links"]))
        leaders = geometry.LeaderSet(inst["leaders"])
        s = dynamics.Scenario(
            m=SWARM_M, x_init=inst["x_init"], leaders=leaders, topologies=((1, topo),),
            schedule=dynamics.SwitchingSchedule(((0.0, 1),)),
            dt=inst["dt"], t_final=SWARM_STEPS * inst["dt"],
        )
        reports = (analysis.check_lemma1(g), analysis.check_lemma2(topo),
                   analysis.check_row_stochastic(topo), analysis.check_theorem2(s))
        _, x_star = dynamics.equilibrium(topo, leaders)
        return reports, geometry.d_xi(x_star, leaders)

    def check(_, out) -> bool:
        reports, d_star = out
        return all(r.passed is True for r in reports) and 0.0 <= d_star <= EQUILIBRIUM_BOUND

    return Workload("large-swarm", instances, run_op, check, alloc_ops=1)


def build(name: str, seed: int, workdir: Path) -> Workload:
    if name == "paper-example2":
        return _paper_example2(workdir)
    if name == "verify-campaign":
        return _verify_campaign(seed)
    if name == "large-swarm":
        return _large_swarm(seed)
    raise ValueError(f"unknown workload {name!r}")
