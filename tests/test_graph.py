import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import leaderless_components

from containment import analysis, dynamics, graph
from containment.geometry import LeaderSet
from containment.graph import (
    AgentGraph,
    LeaderLinks,
    NotAllConnectedError,
    Topology,
    build_h,
    laplacian,
    merge_links,
)
from containment.linalg import sym_eigenvalues
from containment.sampling import (
    random_connected_topology,
    random_graph,
    random_topology,
    rng_for,
)


def path(n, w=1.0):
    return AgentGraph(n, tuple((i, i + 1, w) for i in range(1, n)))


class TestAgentGraph:
    def test_default_weight(self):
        g = AgentGraph(2, ((1, 2),))
        assert g.edges == ((1, 2, 1.0),)

    def test_canonical_order(self):
        g = AgentGraph(3, ((3, 1, 2.0), (2, 1, 1.0)))
        assert g.edges == ((1, 2, 1.0), (1, 3, 2.0))

    @pytest.mark.parametrize(
        "n, edges",
        [
            (2, ((1, 1, 1.0),)),          # self-loop
            (2, ((1, 2, 0.0),)),          # nonpositive weight
            (2, ((1, 2, -1.0),)),
            (2, ((1, 3, 1.0),)),          # out of range
            (3, ((1, 2, 1.0), (2, 1, 2.0))),  # duplicate pair
            (0, ()),                      # empty agent set
        ],
    )
    def test_rejects_invalid(self, n, edges):
        with pytest.raises(ValueError):
            AgentGraph(n, edges)

    @pytest.mark.parametrize("weight, fault", [
        (math.inf, "inf is not finite"),
        (math.nan, "nan is not finite"),
        (-1.0, "-1.0 must be positive"),
    ], ids=["inf", "nan", "negative"])
    def test_bad_weight_message(self, weight, fault):
        with pytest.raises(ValueError, match=rf"^edge \(1, 2\) weight {fault}$"):
            AgentGraph(2, ((1, 2, weight),))
        with pytest.raises(ValueError, match=rf"^link \(1, 1\) weight {fault}$"):
            LeaderLinks(2, 1, ((1, 1, weight),))


class TestLaplacian:
    def test_path3(self):
        expected = [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
        np.testing.assert_array_equal(laplacian(path(3)), expected)

    def test_edgeless(self):
        np.testing.assert_array_equal(laplacian(AgentGraph(3)), np.zeros((3, 3)))

    def test_single_weighted_edge(self):
        g = AgentGraph(2, ((1, 2, 2.0),))
        np.testing.assert_array_equal(laplacian(g), [[2, -2], [-2, 2]])

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_rows_sum_to_zero_and_adjacency_symmetric(self, seed):
        g = random_graph(rng_for(seed), n_min=1, n_max=9)
        lap = laplacian(g)
        assert np.abs(lap.sum(axis=1)).max() <= 1e-12
        a = np.diag(np.diag(lap)) - lap
        np.testing.assert_array_equal(a, a.T)
        assert np.abs(np.diag(a)).max() == 0.0
        assert a.min() >= 0.0

    @pytest.mark.parametrize("edges, links, agent", [
        (((1, 2, 1e308), (2, 3, 1e308)), ((1, 1, 1.0),), 2),
        (((1, 2, 1.0), (2, 3, 1.0)), ((3, 1, 1e308), (3, 2, 1e308)), 3),
        (((1, 2, 1e308), (2, 3, 1.0)), ((1, 1, 1e308),), 1),
    ], ids=["degree", "link-sum", "degree-plus-links"])
    def test_overflowing_sum_names_its_agent(self, edges, links, agent):
        # each weight is finite, but an agent's sum passes the largest double;
        # the pytest configuration turns numpy's overflow warning into an error
        t = Topology(AgentGraph(3, edges), LeaderLinks(3, 2, links))
        with pytest.raises(ValueError,
                           match=f"^agent {agent}: its summed weights overflow a double$"):
            build_h(t)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_zero_eigenvalue_multiplicity_counts_components(self, seed):
        g = random_graph(rng_for(seed), n_min=2, n_max=9)
        eigs = sym_eigenvalues(laplacian(g))
        n_zero = int((np.abs(eigs) <= 1e-9).sum())
        comps = g.components
        assert n_zero == len(comps)
        assert abs(eigs[0]) <= 1e-9
        if len(comps) == 1:
            assert eigs[1] > 1e-9


class TestComponents:
    def test_connected_path(self):
        assert path(3).components == ((1, 2, 3),)

    def test_isolated_agents(self):
        g = AgentGraph(4, ((1, 2, 1.0),))
        assert g.components == ((1, 2), (3,), (4,))

    def test_two_triangles(self):
        g = AgentGraph(
            6,
            ((1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0), (4, 5, 1.0), (5, 6, 1.0), (4, 6, 1.0)),
        )
        assert g.components == ((1, 2, 3), (4, 5, 6))

    def test_searched_once_per_graph(self, monkeypatch):
        # lemma 1, lemma 2, the leaderless components and a random topology's
        # draw all read the graph's one search
        calls = []
        search = graph.AgentGraph.components.func

        def counted(g):
            calls.append(g)
            return search(g)

        monkeypatch.setattr(graph.AgentGraph.components, "func", counted)
        g = AgentGraph(4, ((1, 2, 1.0), (3, 4, 2.0)))
        t = Topology(g, LeaderLinks(4, 1, ((1, 1, 1.0), (4, 1, 1.0))))
        assert g.components == ((1, 2), (3, 4))
        assert analysis.check_lemma1(g).value("component_count") == 2.0
        assert analysis.check_lemma2(t).value("component_count") == 2.0
        assert t.leaderless_components == ()
        assert analysis.check_scenario("lemma2", dynamics.Scenario(
            m=1, x_init=np.zeros((4, 1)), leaders=LeaderSet(((0.0,),)), topologies=((1, t),),
            schedule=dynamics.SwitchingSchedule(((0.0, 1),)), dt=0.1, t_final=1.0)).passed
        assert calls == [g]
        drawn = random_topology(rng_for(3), linked=True)
        drawn.leaderless_components
        assert analysis.check_lemma2(drawn).passed
        assert calls == [g, drawn.graph]


class TestBarConnectivity:
    def test_linked_path(self):
        t = Topology(path(3), LeaderLinks(3, 1, ((1, 1, 1.0),)))
        assert t.leaderless_components == ()

    def test_unlinked_component(self):
        g = AgentGraph(3, ((1, 2, 1.0),))  # components {1,2}, {3}
        t = Topology(g, LeaderLinks(3, 1, ((1, 1, 1.0),)))
        assert t.leaderless_components == ((3,),)

    def test_edgeless_fully_linked(self):
        t = Topology(
            AgentGraph(3),
            LeaderLinks(3, 2, ((1, 1, 1.0), (2, 1, 1.0), (3, 2, 1.0))),
        )
        assert t.leaderless_components == ()

    def test_matches_label_propagation_oracle(self):
        for trial in range(100):
            t = random_topology(rng_for(11, trial), linked=trial % 2 == 0)
            assert t.leaderless_components == leaderless_components(t), trial

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_monotone_under_additions(self, seed):
        rng = rng_for(seed)
        g = random_graph(rng, n_min=2, n_max=8)
        k = int(rng.integers(1, 4))
        links = tuple(
            (int(i), int(rng.integers(1, k + 1)), 1.0)
            for i in range(1, g.n + 1)
            if rng.random() < 0.3
        )
        t = Topology(g, LeaderLinks(g.n, k, links))
        before = not t.leaderless_components
        # add one random edge (if available) and one random link
        i, j = (int(v) + 1 for v in rng.choice(g.n, size=2, replace=False)) if g.n >= 2 else (1, 1)
        pair = tuple(sorted((i, j)))
        edges = g.edges
        if pair not in {(a, b) for a, b, _ in edges} and pair[0] != pair[1]:
            edges = edges + ((pair[0], pair[1], 1.0),)
        extra_agent = int(rng.integers(1, g.n + 1))
        extra_leader = int(rng.integers(1, k + 1))
        new_links = {(a, q): w for a, q, w in links}
        new_links[(extra_agent, extra_leader)] = new_links.get((extra_agent, extra_leader), 0.0) + 1.0
        grown = Topology(
            AgentGraph(g.n, edges),
            LeaderLinks(g.n, k, tuple((a, q, w) for (a, q), w in sorted(new_links.items()))),
        )
        if before:
            assert not grown.leaderless_components


class TestLeaderLinks:
    @pytest.mark.parametrize(
        "n, k, links",
        [
            (2, 1, ((1, 1, 0.0),)),
            (2, 1, ((3, 1, 1.0),)),
            (2, 1, ((1, 2, 1.0),)),
            (2, 1, ((1, 1, 1.0), (1, 1, 2.0))),
        ],
    )
    def test_rejects_invalid(self, n, k, links):
        with pytest.raises(ValueError):
            LeaderLinks(n, k, links)

    def test_link_weights_columns(self):
        t = Topology(AgentGraph(2), LeaderLinks(2, 2, ((1, 1, 0.5), (2, 2, 2.0))))
        np.testing.assert_array_equal(t.link_weights, [[0.5, 0.0], [0.0, 2.0]])

    def test_link_weights_cached_read_only(self):
        t = Topology(AgentGraph(2), LeaderLinks(2, 2, ((1, 1, 0.5), (2, 2, 2.0))))
        assert t.link_weights is t.link_weights
        with pytest.raises(ValueError):
            t.link_weights[0, 0] = 1.0

    def test_merge_adds_weights(self):
        a = LeaderLinks(2, 2, ((1, 1, 1.0),))
        b = LeaderLinks(2, 2, ((1, 1, 0.5), (2, 2, 1.0)))
        merged = merge_links(a, b)
        assert merged.links == ((1, 1, 1.5), (2, 2, 1.0))

    def test_merge_names_an_overflowing_sum(self):
        a = LeaderLinks(2, 1, ((1, 1, 1e308),))
        with pytest.raises(ValueError,
                           match=r"^link \(1, 1\): its summed weights overflow a double$"):
            merge_links(a, a)

    def test_merge_rejects_mismatch(self):
        with pytest.raises(ValueError):
            merge_links(LeaderLinks(2, 1), LeaderLinks(3, 1))

    def test_topology_size_mismatch(self):
        with pytest.raises(ValueError):
            Topology(AgentGraph(2), LeaderLinks(3, 1))


class TestSpectrum:
    def test_matches_composite_matrix(self):
        t = Topology(path(3), LeaderLinks(3, 1, ((1, 1, 1.0),)))
        lam, v = t.spectrum
        np.testing.assert_allclose(v @ np.diag(lam) @ v.T, build_h(t), atol=1e-12)
        assert t.spectrum is t.spectrum  # solved once, on first read

    def test_read_spectrum_keeps_value_semantics(self):
        read = Topology(path(3), LeaderLinks(3, 2, ((1, 1, 1.0), (3, 2, 0.5))))
        before = repr(read)
        read.spectrum
        fresh = Topology(path(3), LeaderLinks(3, 2, ((1, 1, 1.0), (3, 2, 0.5))))
        assert read == fresh and fresh == read
        assert hash(read) == hash(fresh)
        assert repr(read) == repr(fresh) == before

    def test_arrays_reject_writes(self):
        lam, v = Topology(path(2), LeaderLinks(2, 1, ((2, 1, 1.0),))).spectrum
        with pytest.raises(ValueError):
            lam[0] = 0.0
        with pytest.raises(ValueError):
            v[0, 0] = 0.0


def scaled(t, c):
    """t with every edge and link weight multiplied by c, so H and B scale by c."""
    return Topology(
        AgentGraph(t.graph.n, tuple((i, j, c * w) for i, j, w in t.graph.edges)),
        LeaderLinks(t.leaders.n, t.leaders.k,
                    tuple((i, q, c * w) for i, q, w in t.leaders.links)),
    )


class TestSolve:
    def test_hand_solution(self):
        # H = [[2, -1], [-1, 1]], whose inverse is [[1, 1], [1, 2]]
        t = Topology(path(2), LeaderLinks(2, 1, ((1, 1, 1.0),)))
        np.testing.assert_allclose(t.solve([1.0, 0.0]), [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(t.solve(np.eye(2)), [[1.0, 1.0], [1.0, 2.0]], atol=1e-12)

    def test_rhs_shape_mismatch(self):
        t = Topology(path(2), LeaderLinks(2, 1, ((1, 1, 1.0),)))
        with pytest.raises(ValueError):
            t.solve(np.ones(3))

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_random_connected(self, seed):
        rng = rng_for(seed)
        t = random_connected_topology(rng)
        rhs = rng.normal(size=(t.graph.n, 2))
        x = t.solve(rhs)
        resid = np.abs(build_h(t) @ x - rhs).max()
        assert resid <= 1e-9 * (1.0 + np.abs(rhs).max())

    def test_leaderless_raises_naming_components(self):
        t = Topology(AgentGraph(4, ((2, 3, 1.0),)), LeaderLinks(4, 1, ((1, 1, 1.0),)))
        with pytest.raises(NotAllConnectedError) as e:
            t.solve(np.ones(4))
        assert str(e.value) == ("leaderless components {2, 3}, {4}: "
                                "no leader link reaches these agents")
        assert isinstance(e.value, ValueError)

    def test_singular_h_of_connected_topology_is_a_plain_value_error(self):
        # 2 + 1e-16 rounds to 2, so H of this leader-connected chain is the
        # singular Laplacian in floating point
        t = Topology(path(3), LeaderLinks(3, 1, ((1, 1, 1e-16),)))
        assert t.leaderless_components == ()
        with pytest.raises(ValueError) as e:
            t.solve(np.ones(3))
        assert type(e.value) is ValueError
        assert str(e.value) == ("composite matrix H is singular in floating point although "
                                "every component has a leader link; the smallest link "
                                "weight is 1e-16")

    def test_components_searched_once_per_topology(self, monkeypatch):
        calls = []
        search = graph.AgentGraph.components.func

        def counted(g):
            calls.append(g)
            return search(g)

        monkeypatch.setattr(graph.AgentGraph.components, "func", counted)
        t = Topology(path(3), LeaderLinks(3, 2, ((1, 1, 1.0), (3, 2, 0.5))))
        leaders = LeaderSet(((0.0,), (1.0,)))
        t.solve(np.ones(3))
        t.solve(np.eye(3))
        dynamics.equilibrium(t, leaders)
        analysis.check_row_stochastic(t)
        dynamics.simulate(dynamics.Scenario(
            m=1, x_init=np.zeros((3, 1)), leaders=leaders, topologies=((1, t),),
            schedule=dynamics.SwitchingSchedule(((0.0, 1),)), dt=0.1, t_final=1.0))
        assert len(calls) == 1

    def test_raises_iff_leaderless_at_any_weight_scale(self):
        # the graph decides solvability, so the decision cannot depend on the
        # weight scale (H and B are linear in the weights)
        for trial in range(200):
            t0 = random_topology(rng_for(7, trial), linked=trial % 2 == 0)
            for scale in (1.0, 1e-13, 1e13):
                t = scaled(t0, scale)
                b = t.link_weights
                if t.leaderless_components:
                    with pytest.raises(NotAllConnectedError):
                        t.solve(b)
                    continue
                resid = np.abs(build_h(t) @ t.solve(b) - b).max()
                assert resid <= 1e-9 * np.abs(build_h(t)).max(), (trial, scale)
