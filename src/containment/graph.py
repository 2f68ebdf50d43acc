"""Weighted undirected agent graphs and their leader links.

Agents are numbered 1..n and leaders 1..k throughout the public API; matrix
representations are materialized on demand as dense numpy arrays. A topology
is "leader-connected" when every component of the agent graph contains at
least one agent with a direct link to some leader, i.e. the graph augmented
with a single virtual node standing for all leaders is connected.

Each record owns the data derived from it, as cached properties computed
on first read: an ``AgentGraph`` its component search, a ``Topology`` its
link weights and its leaderless components. ``require_leader_connected``
alone raises ``NotAllConnectedError``. One builder forms ``laplacian`` and
H = ``build_h``, naming an agent whose summed weights overflow. H is used
only through the topology: ``Topology.spectrum`` eigensolves it once, on
first read, for every spectral consumer, and ``Topology.solve`` solves with
it. H is positive definite exactly when the topology is leader-connected,
since H is then an irreducibly diagonally dominant M-matrix on each
component (Berman & Plemmons, Nonnegative Matrices in the Mathematical
Sciences, ch. 6), so ``solve`` decides solvability from the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import sym_eigh


class NotAllConnectedError(ValueError):
    """A check or solve needs a leader-connected topology and got one with a
    leaderless component."""


def _weighted_pairs(pairs, noun: str, shape: str, check) -> tuple[tuple[int, int, float], ...]:
    """Parse (a, b) and (a, b, weight) pairs into sorted (a, b, weight) triples.

    A bare pair gets weight 1.0. ``check(a, b)`` raises on the caller's own
    rules and returns the pair's canonical key; then the weight must be
    positive and finite, and each key may appear once.
    """
    seen = set()
    out = []
    for e in pairs:
        if len(e) == 2:
            a, b, w = int(e[0]), int(e[1]), 1.0
        elif len(e) == 3:
            a, b, w = int(e[0]), int(e[1]), float(e[2])
        else:
            raise ValueError(f"{noun} {e!r} must be {shape}")
        key = check(a, b)
        if not np.isfinite(w):
            raise ValueError(f"{noun} ({a}, {b}) weight {w} is not finite")
        if w <= 0:
            raise ValueError(f"{noun} ({a}, {b}) weight {w} must be positive")
        if key in seen:
            raise ValueError(f"duplicate {noun} ({key[0]}, {key[1]})")
        seen.add(key)
        out.append((*key, w))
    return tuple(sorted(out))


@dataclass(frozen=True)
class AgentGraph:
    """Undirected graph on agents 1..n with strictly positive edge weights.

    Edges are stored canonically as (i, j, weight) with i < j. A bare (i, j)
    pair gets weight 1.0.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("agent count must be a positive integer")

        def check(i, j):
            if i == j:
                raise ValueError(f"self-loop on agent {i}")
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"edge ({i}, {j}) out of range 1..{self.n}")
            return (i, j) if i < j else (j, i)

        edges = _weighted_pairs(self.edges, "edge", "(i, j) or (i, j, weight)", check)
        object.__setattr__(self, "edges", edges)

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components as sorted agent tuples, ordered by smallest
        member; searched on first read."""
        neighbors: dict[int, list[int]] = {i: [] for i in range(1, self.n + 1)}
        for i, j, _ in self.edges:
            neighbors[i].append(j)
            neighbors[j].append(i)
        unseen = set(range(1, self.n + 1))
        out = []
        while unseen:
            start = min(unseen)
            stack = [start]
            comp = {start}
            unseen.discard(start)
            while stack:
                v = stack.pop()
                for u in neighbors[v]:
                    if u in unseen:
                        unseen.discard(u)
                        comp.add(u)
                        stack.append(u)
            out.append(tuple(sorted(comp)))
        return tuple(out)


@dataclass(frozen=True)
class LeaderLinks:
    """Per-agent links to leaders: (agent, leader, weight) with weight > 0.

    At most one link per (agent, leader) pair; a bare (agent, leader) pair
    gets weight 1.0. k is the leader count even if some leaders are unlinked.
    """

    n: int
    k: int
    links: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("agent count must be a positive integer")
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError("leader count must be a positive integer")

        def check(i, q):
            if not 1 <= i <= self.n:
                raise ValueError(f"link agent {i} out of range 1..{self.n}")
            if not 1 <= q <= self.k:
                raise ValueError(f"link leader {q} out of range 1..{self.k}")
            return i, q

        links = _weighted_pairs(self.links, "link",
                                "(agent, leader) or (agent, leader, weight)", check)
        object.__setattr__(self, "links", links)


@dataclass(frozen=True)
class Topology:
    """One interconnection pattern: an agent graph plus its leader links."""

    graph: AgentGraph
    leaders: LeaderLinks

    def __post_init__(self):
        if self.graph.n != self.leaders.n:
            raise ValueError(
                f"graph has {self.graph.n} agents but links are for {self.leaders.n}"
            )

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues of ``build_h(self)`` and orthonormal
        eigenvectors as the matching columns, both read-only."""
        lam, v = sym_eigh(build_h(self))
        lam.setflags(write=False)
        v.setflags(write=False)
        return lam, v

    @cached_property
    def link_weights(self) -> np.ndarray:
        """Read-only (n, k) matrix of link weights; column q is the diagonal
        of leader q's matrix B^q."""
        b = np.zeros((self.graph.n, self.leaders.k))
        for agent, leader, w in self.leaders.links:
            b[agent - 1, leader - 1] = w
        b.setflags(write=False)
        return b

    @cached_property
    def leaderless_components(self) -> tuple[tuple[int, ...], ...]:
        """Components with no link to any leader; empty iff leader-connected."""
        linked = {i for i, _, _ in self.leaders.links}
        return tuple(c for c in self.graph.components if linked.isdisjoint(c))

    def require_leader_connected(self, context: str = "") -> None:
        """Raise NotAllConnectedError, prefixed by ``context`` and naming the
        leaderless components, unless every component has a leader link."""
        comps = self.leaderless_components
        if comps:
            names = ", ".join("{" + ", ".join(map(str, c)) + "}" for c in comps)
            plural = "s" if len(comps) > 1 else ""
            raise NotAllConnectedError(f"{context}leaderless component{plural} {names}: "
                                       "no leader link reaches these agents")

    def solve(self, rhs) -> np.ndarray:
        """Solve ``build_h(self) @ x = rhs`` for a vector or matrix rhs.

        Raises NotAllConnectedError for a leaderless topology, and ValueError
        when H of a leader-connected topology is still singular in floating
        point (a link weight lost against its agent's degree).
        """
        self.require_leader_connected()
        try:
            return np.linalg.solve(build_h(self), rhs)
        except np.linalg.LinAlgError:
            raise ValueError(
                "composite matrix H is singular in floating point although every "
                "component has a leader link; the smallest link weight is "
                f"{min(w for _, _, w in self.leaders.links):.3g}"
            ) from None


def _diag_minus_adjacency(g: AgentGraph, b: np.ndarray) -> np.ndarray:
    """diag(degree + row sums of ``b``) - A for the weighted adjacency A of
    ``g``; a ValueError names the first agent whose sum overflows."""
    a = np.zeros((g.n, g.n))
    for i, j, w in g.edges:
        a[i - 1, j - 1] = w
        a[j - 1, i - 1] = w
    with np.errstate(over="ignore"):
        diag = a.sum(axis=1) + b.sum(axis=1)
    bad = np.flatnonzero(~np.isfinite(diag))
    if bad.size:
        raise ValueError(f"agent {bad[0] + 1}: its summed weights overflow a double")
    return np.diag(diag) - a


def laplacian(g: AgentGraph) -> np.ndarray:
    """Graph Laplacian: degree matrix minus weighted adjacency.

    Rows sum to zero; the all-ones vector is always in the kernel.
    """
    return _diag_minus_adjacency(g, np.zeros((g.n, 0)))


def build_h(t: Topology) -> np.ndarray:
    """Composite feedback matrix: Laplacian plus total link weight per agent."""
    return _diag_minus_adjacency(t.graph, t.link_weights)


def merge_links(a: LeaderLinks, b: LeaderLinks) -> LeaderLinks:
    """Union of two link sets; weights on shared (agent, leader) pairs add,
    and a ValueError names the first pair whose sum overflows."""
    if (a.n, a.k) != (b.n, b.k):
        raise ValueError("link sets describe different systems")
    acc: dict[tuple[int, int], float] = {}
    for agent, leader, w in a.links + b.links:
        total = acc.get((agent, leader), 0.0) + w
        if not np.isfinite(total):
            raise ValueError(f"link ({agent}, {leader}): its summed weights overflow a double")
        acc[(agent, leader)] = total
    links = tuple((i, q, w) for (i, q), w in sorted(acc.items()))
    return LeaderLinks(a.n, a.k, links)
