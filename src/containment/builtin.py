"""Bundled demonstration scenarios.

The interconnection patterns here are reconstructions: the reference data
(initial states and leader positions) is exact, while the edge sets are the
minimal patterns consistent with the behavior each scenario is meant to show.
Scenario notes say so explicitly.

Naming used throughout the CLI:

* ``example1-base``        five agents on a line segment between two leaders
* ``example1-more-links``  agents 2, 3, 4 additionally linked to leader 1
* ``example1-isolated-2``  agent 2 cut off from all other agents, linked to
                           leader 1 directly
* ``example1-relay-5``     agents 2 and 4 additionally connected with agent 5
* ``example2``             five planar agents entering a leader triangle
* ``necessity``            agents 4, 5 form a leaderless component
* ``switched``             cycles the three connected example-1 variants
"""

from __future__ import annotations

from functools import partial

from .dynamics import Scenario, SwitchingSchedule
from .geometry import LeaderSet
from .graph import AgentGraph, LeaderLinks, Topology, merge_links

EXAMPLE_ONE_VARIANTS = ("base", "more-links", "isolated-2", "relay-5")

_CHAIN_5 = ((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0))
_X_INIT_1 = ((5.0,), (5.5,), (6.0,), (7.0,), (6.5,))
_LEADERS_1 = ((1.0,), (2.0,))

# the links toward leader 1 that turn the base variant into more-links
EXAMPLE_ONE_PULL_LINKS = LeaderLinks(5, 2, ((2, 1, 1.0), (3, 1, 1.0), (4, 1, 1.0)))


def example_one_topology(variant: str = "base") -> Topology:
    """One-dimensional five-agent topology for the requested variant."""
    if variant == "more-links":
        base = example_one_topology("base")
        return Topology(base.graph, merge_links(base.leaders, EXAMPLE_ONE_PULL_LINKS))
    if variant == "base":
        edges = _CHAIN_5
        links = ((1, 1, 1.0), (3, 2, 1.0))
    elif variant == "isolated-2":
        # agent 2 loses every neighbor and instead senses leader 1 directly
        edges = ((3, 4, 1.0), (4, 5, 1.0))
        links = ((1, 1, 1.0), (2, 1, 1.0), (3, 2, 1.0))
    elif variant == "relay-5":
        # agents 2 and 4 sense agent 5; the chain already carries 4-5
        edges = _CHAIN_5 + ((2, 5, 1.0),)
        links = ((1, 1, 1.0), (3, 2, 1.0))
    else:
        raise ValueError(f"unknown example-1 variant {variant!r}")
    return Topology(AgentGraph(5, edges), LeaderLinks(5, 2, links))


def _line_scenario(topologies, t_final: float, notes: str,
                   entries=((0.0, 1),)) -> Scenario:
    """Example 1's five agents and two leaders on the real line, dt = 0.01."""
    return Scenario(m=1, x_init=_X_INIT_1, leaders=LeaderSet(_LEADERS_1),
                    topologies=topologies, schedule=SwitchingSchedule(entries),
                    dt=0.01, t_final=t_final, notes=notes)


def example_one(variant: str = "base") -> Scenario:
    """Five agents on the real line steered between two static leaders."""
    return _line_scenario(((1, example_one_topology(variant)),), 50.0,
                          f"reconstructed chain topology, variant {variant}")


def example_two() -> Scenario:
    """Five planar agents starting collinear, steered into a leader triangle.

    Chain topology with agent 1 sensing all three leaders: the minimal
    connected pattern that reproduces both containment and the preserved
    straight-line formation of agents 2..5.
    """
    topo = Topology(
        AgentGraph(5, _CHAIN_5),
        LeaderLinks(5, 3, ((1, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0))),
    )
    return Scenario(
        m=2,
        x_init=((0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (4.0, 0.0)),
        leaders=LeaderSet(((1.0, 1.0), (2.0, 2.0), (1.0, 2.0))),
        topologies=((1, topo),),
        schedule=SwitchingSchedule(((0.0, 1),)),
        dt=0.01,
        t_final=100.0,
        notes="reconstructed chain topology; agent 1 senses all three leaders",
    )


def necessity_demo() -> Scenario:
    """Disconnected variant: agents 4 and 5 form a leaderless component.

    Their states converge to the in-component mean 6.75, far outside the
    leader segment [1, 2], so the distance certificate settles near
    2 * 0.5 * 4.75^2 = 22.5625 instead of zero.
    """
    topo = Topology(
        AgentGraph(5, ((1, 2, 1.0), (2, 3, 1.0), (4, 5, 1.0))),
        LeaderLinks(5, 2, ((1, 1, 1.0),)),
    )
    return _line_scenario(((1, topo),), 60.0,
                          "leaderless component {4, 5}; containment must fail")


def switched_demo() -> Scenario:
    """Three connected topologies cycled with dwell 1.0 over a 30s horizon."""
    topologies = (
        (1, example_one_topology("base")),
        (2, example_one_topology("more-links")),
        (3, example_one_topology("relay-5")),
    )
    return _line_scenario(topologies, 30.0,
                          "cycles the three connected example-1 variants, dwell 1.0",
                          entries=tuple((float(l), 1 + l % 3) for l in range(30)))


BUILTIN_SCENARIOS = {
    **{f"example1-{v}": partial(example_one, v) for v in EXAMPLE_ONE_VARIANTS},
    "example2": example_two,
    "necessity": necessity_demo,
    "switched": switched_demo,
}


def builtin_scenario(name: str) -> Scenario:
    try:
        return BUILTIN_SCENARIOS[name]()
    except KeyError:
        known = ", ".join(sorted(BUILTIN_SCENARIOS))
        raise ValueError(f"unknown builtin scenario {name!r} (known: {known})") from None
