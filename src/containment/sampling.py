"""Deterministic random instance generators for verification campaigns.

Every generator takes an explicit numpy Generator; campaigns derive one per
trial from (seed, trial index) so runs are reproducible and trials are
independent.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import Scenario, SwitchingSchedule
from .geometry import LeaderSet
from .graph import AgentGraph, LeaderLinks, Topology

WEIGHT_RANGE = (0.5, 2.0)


def rng_for(seed: int, trial: int | None = None) -> np.random.Generator:
    return np.random.default_rng(seed if trial is None else [seed, trial])


def _weight(rng) -> float:
    lo, hi = WEIGHT_RANGE
    return float(rng.uniform(lo, hi))


def _connected_edges(rng, agents: list[int]):
    """Random spanning tree over the given agent ids plus each other edge with
    probability 0.35."""
    order = [agents[i] for i in rng.permutation(len(agents))]
    edges = {}
    for idx in range(1, len(order)):
        j = int(rng.integers(0, idx))
        a, b = sorted((order[idx], order[j]))
        edges[(a, b)] = _weight(rng)
    for ai in range(len(agents)):
        for bi in range(ai + 1, len(agents)):
            pair = tuple(sorted((agents[ai], agents[bi])))
            if pair not in edges and rng.random() < 0.35:
                edges[pair] = _weight(rng)
    return [(i, j, w) for (i, j), w in edges.items()]


def random_graph(rng, n_min: int = 2, n_max: int = 12) -> AgentGraph:
    """Random graph with 1..3 connected components."""
    n = int(rng.integers(n_min, n_max + 1))
    parts = int(rng.integers(1, min(3, n) + 1))
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    cuts = sorted(rng.choice(np.arange(1, n), size=parts - 1, replace=False)) if parts > 1 else []
    chunks = np.split(np.array(ids), cuts)
    edges: list[tuple[int, int, float]] = []
    for chunk in chunks:
        edges.extend(_connected_edges(rng, [int(i) for i in chunk]))
    return AgentGraph(n, tuple(edges))


def _random_links(rng, g: AgentGraph, k: int):
    """Each agent-leader link with probability 0.3."""
    links = {}
    for i in range(1, g.n + 1):
        for q in range(1, k + 1):
            if rng.random() < 0.3:
                links[(i, q)] = _weight(rng)
    return links


def _connected_topology(rng, n: int, k: int) -> Topology:
    """Connected graph on n agents, random links to k leaders, and one forced
    link when none was drawn."""
    g = AgentGraph(n, tuple(_connected_edges(rng, list(range(1, n + 1)))))
    links = _random_links(rng, g, k)
    if not links:
        links[(int(rng.integers(1, n + 1)), int(rng.integers(1, k + 1)))] = _weight(rng)
    link_tuple = tuple((i, q, w) for (i, q), w in sorted(links.items()))
    return Topology(g, LeaderLinks(n, k, link_tuple))


def random_connected_topology(rng, n_max: int = 12, k: int | None = None) -> Topology:
    """Connected agent graph with at least one leader link, to 1..4 leaders
    unless ``k`` is given."""
    n = int(rng.integers(2, n_max + 1))
    if k is None:
        k = int(rng.integers(1, 5))
    return _connected_topology(rng, n, k)


def random_topology(rng, linked: bool, n_max: int = 12, k: int | None = None) -> Topology:
    """Random topology to 1..4 leaders unless ``k`` is given; ``linked``
    decides whether every component gets a link."""
    g = random_graph(rng, n_max=n_max)
    if k is None:
        k = int(rng.integers(1, 5))
    comps = g.components
    links = _random_links(rng, g, k)
    by_comp = {comp: [i for i in comp if any((i, q) in links for q in range(1, k + 1))]
               for comp in comps}
    if linked:
        for comp, present in by_comp.items():
            if not present:
                agent = int(comp[int(rng.integers(0, len(comp)))])
                links[(agent, int(rng.integers(1, k + 1)))] = _weight(rng)
    else:
        # strip links from at least one component
        strip = [comp for comp in comps if rng.random() < 0.5]
        if not strip:
            strip = [comps[int(rng.integers(0, len(comps)))]]
        for comp in strip:
            for i in comp:
                for q in range(1, k + 1):
                    links.pop((i, q), None)
    link_tuple = tuple((i, q, w) for (i, q), w in sorted(links.items()))
    return Topology(g, LeaderLinks(g.n, k, link_tuple))


def random_leader_set(rng, k: int, m: int) -> LeaderSet:
    """k leaders drawn uniformly from the box [0, 2]^m."""
    return LeaderSet(rng.uniform(0.0, 2.0, size=(k, m)))


def random_leader_pull_case(rng) -> tuple[Topology, LeaderLinks, LeaderSet]:
    """Connected two-leader topology, extra links toward one random leader (from
    each agent with probability 0.4, else from one random agent with unit
    weight), and leader positions in 1..3 dimensions."""
    base = random_connected_topology(rng, k=2)
    n = base.graph.n
    q = int(rng.integers(1, 3))
    adds = {agent: _weight(rng) for agent in range(1, n + 1) if rng.random() < 0.4}
    if not adds:
        adds[int(rng.integers(1, n + 1))] = 1.0
    extra = LeaderLinks(n, 2, tuple((agent, q, w) for agent, w in sorted(adds.items())))
    return base, extra, random_leader_set(rng, 2, int(rng.integers(1, 4)))


def _settle_rate(topo: Topology) -> float:
    """Slowest nonzero mode of the composite matrix, 1.0 if every mode is zero.

    Each leaderless component adds exactly one zero eigenvalue, so the
    slowest rate is the first eigenvalue past that many.
    """
    eig = topo.spectrum[0]
    zeros = len(topo.leaderless_components)
    return float(eig[zeros]) if zeros < len(eig) else 1.0


def _integration_grid(topo: Topology):
    """Step size stable for RK4 and a horizon of 20 time constants of the
    slowest mode, long enough to settle."""
    dt = min(0.05, 0.5 / max(float(topo.spectrum[0][-1]), 1e-9))
    steps = max(1, math.ceil(20.0 / (_settle_rate(topo) * dt)))
    return dt, steps


def settle_scenario(rng, connected: bool = True, n_max: int = 12) -> Scenario:
    """Fixed-topology scenario in 1..3 dimensions with 1..4 leaders,
    integrated long enough for the limit to settle.

    Connected instances place agents anywhere in a desk-scale box. Instances
    with leaderless components place those agents in a box offset from the
    leaders' hull so their consensus mean stays well outside it.
    """
    m = int(rng.integers(1, 4))
    k = int(rng.integers(1, 5))
    leaders = random_leader_set(rng, k, m)
    if connected:
        topo = random_connected_topology(rng, n_max=n_max, k=k)
        x_init = rng.uniform(-2.0, 8.0, size=(topo.graph.n, m))
    else:
        topo = random_topology(rng, linked=False, n_max=n_max, k=k)
        x_init = rng.uniform(0.0, 4.0, size=(topo.graph.n, m))
        for comp in topo.leaderless_components:
            for i in comp:
                x_init[i - 1] = rng.uniform(3.5, 9.0, size=m)
    dt, steps = _integration_grid(topo)
    return Scenario(
        m=m,
        x_init=x_init,
        leaders=leaders,
        topologies=((1, topo),),
        schedule=SwitchingSchedule(((0.0, 1),)),
        dt=dt,
        t_final=steps * dt,
    )


def random_switched_scenario(rng, n_topologies: int = 3) -> Scenario:
    """Switched scenario in 1..3 dimensions whose topologies are all
    leader-connected, with 12 dwells of 50 steps each."""
    m = int(rng.integers(1, 4))
    k = int(rng.integers(1, 4))
    n = int(rng.integers(2, 9))
    leaders = random_leader_set(rng, k, m)
    topos = [(pid, _connected_topology(rng, n, k)) for pid in range(1, n_topologies + 1)]
    lam_max = max(float(t.spectrum[0][-1]) for _, t in topos)
    dt = min(0.02, 0.5 / max(lam_max, 1e-9))
    dwell = 50 * dt
    entries = tuple(
        (l * dwell, 1 + int(rng.integers(0, n_topologies))) if l else (0.0, 1)
        for l in range(12)
    )
    x_init = rng.uniform(-2.0, 8.0, size=(n, m))
    return Scenario(
        m=m,
        x_init=x_init,
        leaders=leaders,
        topologies=tuple(topos),
        schedule=SwitchingSchedule(entries),
        dt=dt,
        t_final=12 * dwell,
    )

