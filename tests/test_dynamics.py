import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import control_oracle

from containment.builtin import example_one, example_one_topology, switched_demo
from containment.dynamics import (
    Scenario,
    ScenarioError,
    SwitchingSchedule,
    build_h,
    control,
    equilibrium,
    simulate,
    step,
)
from containment.geometry import LeaderSet
from containment.graph import AgentGraph, LeaderLinks, Topology
from containment.linalg import NotPositiveDefiniteError, is_row_stochastic, sym_eigenvalues
from containment.sampling import random_connected_topology, rng_for, settle_scenario

SOLO = Topology(AgentGraph(1), LeaderLinks(1, 1, ((1, 1, 1.0),)))
SOLO_LEADER = LeaderSet(((1.0,),))
CHAIN2 = Topology(AgentGraph(2, ((1, 2, 1.0),)), LeaderLinks(2, 1, ((1, 1, 1.0),)))


def fixed(topo, x_init, leaders, dt=0.01, t_final=1.0, m=None):
    leaders = leaders if isinstance(leaders, LeaderSet) else LeaderSet(leaders)
    return Scenario(
        m=m or leaders.m,
        x_init=x_init,
        leaders=leaders,
        topologies=((1, topo),),
        schedule=SwitchingSchedule(((0.0, 1),)),
        dt=dt,
        t_final=t_final,
    )


class TestBuildH:
    def test_solo(self):
        np.testing.assert_array_equal(build_h(SOLO), [[1.0]])

    def test_chain(self):
        np.testing.assert_array_equal(build_h(CHAIN2), [[2.0, -1.0], [-1.0, 1.0]])

    def test_two_leaders_one_agent(self):
        t = Topology(AgentGraph(1), LeaderLinks(1, 2, ((1, 1, 1.0), (1, 2, 1.0))))
        np.testing.assert_array_equal(build_h(t), [[2.0]])


class TestControl:
    def test_zero_at_equilibrium(self):
        leaders = LeaderSet(((1.0,), (2.0,)))
        topo = example_one_topology("base")
        _, x_star = equilibrium(topo, leaders)
        u = control(x_star.ravel(), topo, leaders)
        assert np.abs(u).max() <= 1e-9

    def test_solo_pull(self):
        assert control([5.0], SOLO, SOLO_LEADER)[0] == pytest.approx(-4.0)

    def test_coincident_agents_no_force(self):
        leaders = LeaderSet(((0.0,),))
        topo = Topology(AgentGraph(2, ((1, 2, 1.0),)), LeaderLinks(2, 1, ((1, 1, 1.0),)))
        u = control([3.0, 3.0], topo, leaders)
        assert u[1] == 0.0  # agent 2 sees no leader and no neighbor offset

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            control([1.0, 2.0, 3.0], CHAIN2, SOLO_LEADER)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_matrix_form_matches_neighbor_sums(self, seed):
        rng = rng_for(seed)
        topo = random_connected_topology(rng, n_max=8)
        m = int(rng.integers(1, 4))
        leaders = LeaderSet(rng.uniform(0, 2, size=(topo.leaders.k, m)))
        x = rng.uniform(-5, 5, size=topo.graph.n * m)
        got = control(x, topo, leaders)
        want = control_oracle(x, topo, leaders.positions)
        assert np.abs(got - want).max() <= 1e-12


class TestStep:
    def test_fixed_point(self):
        _, x_star = equilibrium(CHAIN2, SOLO_LEADER)
        after = step(x_star.ravel(), CHAIN2, SOLO_LEADER, 0.1)
        assert np.abs(after - x_star.ravel()).max() <= 1e-12

    def test_scalar_against_exact_flow(self):
        # x(t) = 1 + 4 exp(-t) for the one-agent pull toward 1
        after = step([5.0], SOLO, SOLO_LEADER, 0.1)
        assert after[0] == pytest.approx(1.0 + 4.0 * math.exp(-0.1), abs=1e-6)

    def test_fourth_order_error_decay(self):
        exact = 1.0 + 4.0 * math.exp(-0.4)

        def integrate(dt, steps):
            x = np.array([5.0])
            for _ in range(steps):
                x = step(x, SOLO, SOLO_LEADER, dt)
            return x[0]

        err_coarse = abs(integrate(0.1, 4) - exact)
        err_fine = abs(integrate(0.05, 8) - exact)
        assert 10.0 <= err_coarse / err_fine <= 25.0

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            step([1.0], SOLO, SOLO_LEADER, 0.0)


class TestScenarioValidation:
    def test_empty_agent_set_rejected(self):
        with pytest.raises(ScenarioError):
            fixed(SOLO, np.zeros((0, 1)), SOLO_LEADER)

    def test_strictly_increasing_required(self):
        with pytest.raises(ScenarioError):
            SwitchingSchedule(((0.0, 1), (0.0, 2)))

    def test_rk4_stability_boundary(self):
        # SOLO has lambda = 1; RK4 is stable on the real axis up to dt ~ 2.785
        fixed(SOLO, [[0.0]], SOLO_LEADER, dt=2.78, t_final=2.78)
        with pytest.raises(ScenarioError, match="unstable"):
            fixed(SOLO, [[0.0]], SOLO_LEADER, dt=2.79, t_final=2.79)

    def test_zero_mode_is_stable_at_any_dt(self):
        # H = [[0]] has amplification exactly 1, which must not be rejected
        alone = Topology(AgentGraph(1), LeaderLinks(1, 1))
        fixed(alone, [[0.0]], SOLO_LEADER, dt=100.0, t_final=100.0)

    def test_misaligned_switch_time(self):
        topo = example_one_topology("base")
        with pytest.raises(ScenarioError):
            Scenario(
                m=1,
                x_init=[[5.0]] * 5,
                leaders=LeaderSet(((1.0,), (2.0,))),
                topologies=((1, topo),),
                schedule=SwitchingSchedule(((0.0, 1), (0.005, 1))),
                dt=0.01,
                t_final=1.0,
            )

    def test_dwell_shorter_than_step(self):
        topo = example_one_topology("base")
        with pytest.raises(ScenarioError):
            Scenario(
                m=1,
                x_init=[[5.0]] * 5,
                leaders=LeaderSet(((1.0,), (2.0,))),
                topologies=((1, topo), (2, topo)),
                schedule=SwitchingSchedule(((0.0, 1), (0.01, 2))),
                dt=0.02,
                t_final=1.0,
            )

    def test_unknown_topology_id(self):
        with pytest.raises(ScenarioError):
            Scenario(
                m=1,
                x_init=[[0.0]],
                leaders=SOLO_LEADER,
                topologies=((1, SOLO),),
                schedule=SwitchingSchedule(((0.0, 7),)),
                dt=0.01,
                t_final=1.0,
            )

    def test_horizon_must_exceed_start(self):
        with pytest.raises(ScenarioError):
            fixed(SOLO, [[0.0]], SOLO_LEADER, t_final=0.0)

    def test_horizon_off_grid(self):
        with pytest.raises(ScenarioError):
            fixed(SOLO, [[0.0]], SOLO_LEADER, dt=0.3, t_final=1.0)

    def test_leader_dimension_mismatch(self):
        with pytest.raises(ScenarioError):
            fixed(SOLO, [[0.0, 0.0]], LeaderSet(((1.0,),)), m=2)

    def test_schedule_must_start_at_t0(self):
        with pytest.raises(ScenarioError):
            Scenario(
                m=1,
                x_init=[[0.0]],
                leaders=SOLO_LEADER,
                topologies=((1, SOLO),),
                schedule=SwitchingSchedule(((0.5, 1),)),
                dt=0.01,
                t_final=1.0,
            )


class TestEquilibrium:
    def test_solo(self):
        w, x_star = equilibrium(SOLO, SOLO_LEADER)
        np.testing.assert_allclose(w, [[1.0]])
        np.testing.assert_allclose(x_star, [[1.0]])

    def test_chain_hand_solution(self):
        w, x_star = equilibrium(CHAIN2, SOLO_LEADER)
        np.testing.assert_allclose(w, [[1.0], [1.0]], atol=1e-12)
        np.testing.assert_allclose(x_star, [[1.0], [1.0]], atol=1e-12)
        assert is_row_stochastic(w, 1e-9)

    def test_two_leaders_midpoint(self):
        t = Topology(AgentGraph(1), LeaderLinks(1, 2, ((1, 1, 1.0), (1, 2, 1.0))))
        leaders = LeaderSet(((0.0,), (4.0,)))
        w, x_star = equilibrium(t, leaders)
        np.testing.assert_allclose(w, [[0.5, 0.5]], atol=1e-12)
        assert x_star[0, 0] == pytest.approx(2.0)

    def test_disconnected_raises(self):
        t = Topology(AgentGraph(2), LeaderLinks(2, 1, ((1, 1, 1.0),)))
        with pytest.raises(NotPositiveDefiniteError):
            equilibrium(t, SOLO_LEADER)

    def test_tiny_weights_keep_the_limit(self):
        # an absolute pivot floor rejected this leader-connected topology
        base = example_one_topology("base")
        tiny = Topology(
            AgentGraph(5, tuple((i, j, w * 1e-13) for i, j, w in base.graph.edges)),
            LeaderLinks(5, 2, tuple((a, q, w * 1e-13) for a, q, w in base.leaders.links)),
        )
        leaders = LeaderSet(((1.0,), (2.0,)))
        np.testing.assert_allclose(equilibrium(tiny, leaders)[0],
                                   equilibrium(base, leaders)[0], rtol=0, atol=1e-12)


class TestSimulate:
    def test_first_sample_is_initial_state(self):
        s = example_one("base")
        traj = simulate(s)
        np.testing.assert_array_equal(traj.states[0], np.asarray(s.x_init).ravel())
        assert traj.times[0] == s.t0
        spacings = np.diff(traj.times)
        assert np.abs(spacings - s.dt).max() <= 1e-12

    def test_converges_to_equilibrium(self):
        rng = rng_for(12345)
        s = settle_scenario(rng, connected=True, n_max=6)
        traj = simulate(s)
        topo = s.topology(1)
        _, x_star = equilibrium(topo, s.leaders)
        assert np.abs(traj.final_state - x_star).max() <= 1e-4

    def test_hull_is_invariant(self):
        s = fixed(
            example_one_topology("base"),
            [[1.1], [1.3], [1.5], [1.7], [1.9]],
            LeaderSet(((1.0,), (2.0,))),
            dt=0.01,
            t_final=5.0,
        )
        traj = simulate(s)
        assert traj.d_xi.max() <= 1e-9

    def test_translation_equivariance(self):
        shift = 3.7
        leaders = LeaderSet(((1.0,), (2.0,)))
        x0 = [[5.0], [5.5], [6.0], [7.0], [6.5]]
        base = simulate(fixed(example_one_topology("base"), x0, leaders, t_final=2.0))
        moved = simulate(
            fixed(
                example_one_topology("base"),
                np.asarray(x0) + shift,
                LeaderSet(leaders.positions + shift),
                t_final=2.0,
            )
        )
        assert np.abs(moved.states - base.states - shift).max() <= 1e-9

    def test_switched_records_active_topology(self):
        s = switched_demo()
        traj = simulate(s)
        assert traj.topologies[0] == 1
        # dwell 1.0 at dt 0.01: sample 100 sits at the first switch
        assert traj.topologies[99] == 1
        assert traj.topologies[100] == 2
        assert set(np.unique(traj.topologies)) == {1, 2, 3}

    def test_dxi_monotone_on_fixed_connected(self):
        s = example_one("base")
        traj = simulate(s)
        increases = np.diff(traj.d_xi) - 1e-9 * (1.0 + traj.d_xi[:-1])
        assert increases.max() <= 0.0
