import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import control_oracle, grid_segments, rk4_loop, rk4_unstable

from containment import dynamics
from containment.builtin import (
    BUILTIN_SCENARIOS,
    builtin_scenario,
    example_one,
    example_one_topology,
    switched_demo,
)
from containment.dynamics import (
    _RK4_LIMIT,
    _segment,
    Scenario,
    ScenarioError,
    SwitchingSchedule,
    equilibrium,
    simulate,
    terminal_state,
)
from containment.geometry import LeaderSet
from containment.graph import (
    AgentGraph,
    LeaderLinks,
    NotAllConnectedError,
    Topology,
    build_h,
)
from containment.sampling import (
    random_connected_topology,
    random_switched_scenario,
    rng_for,
    settle_scenario,
)

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


def matrix_form(x, topo, leaders):
    """The velocity simulate integrates, B x0 - H x, stacked agent-major."""
    pts = np.asarray(x, dtype=float).reshape(topo.graph.n, leaders.m)
    return (topo.link_weights @ leaders.positions - build_h(topo) @ pts).ravel()


class TestControl:
    def test_zero_at_equilibrium(self):
        leaders = LeaderSet(((1.0,), (2.0,)))
        topo = example_one_topology("base")
        _, x_star = equilibrium(topo, leaders)
        u = control_oracle(x_star.ravel(), topo, leaders.positions)
        assert np.abs(u).max() <= 1e-9

    def test_solo_pull(self):
        assert matrix_form([5.0], SOLO, SOLO_LEADER)[0] == pytest.approx(-4.0)

    def test_coincident_agents_no_force(self):
        leaders = LeaderSet(((0.0,),))
        topo = Topology(AgentGraph(2, ((1, 2, 1.0),)), LeaderLinks(2, 1, ((1, 1, 1.0),)))
        u = matrix_form([3.0, 3.0], topo, leaders)
        assert u[1] == 0.0  # agent 2 sees no leader and no neighbor offset

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_matrix_form_matches_neighbor_sums(self, seed):
        rng = rng_for(seed)
        topo = random_connected_topology(rng, n_max=8)
        m = int(rng.integers(1, 4))
        leaders = LeaderSet(rng.uniform(0, 2, size=(topo.leaders.k, m)))
        x = rng.uniform(-5, 5, size=topo.graph.n * m)
        got = matrix_form(x, topo, leaders)
        want = control_oracle(x, topo, leaders.positions)
        assert np.abs(got - want).max() <= 1e-12


class TestStep:
    def test_fixed_point(self):
        _, x_star = equilibrium(CHAIN2, SOLO_LEADER)
        traj = simulate(fixed(CHAIN2, x_star, SOLO_LEADER, dt=0.1, t_final=0.1))
        assert np.abs(traj.states[-1] - x_star.ravel()).max() <= 1e-12

    def test_scalar_against_exact_flow(self):
        # x(t) = 1 + 4 exp(-t) for the one-agent pull toward 1
        after = simulate(fixed(SOLO, [[5.0]], SOLO_LEADER, dt=0.1, t_final=0.1)).states[-1]
        assert after[0] == pytest.approx(1.0 + 4.0 * math.exp(-0.1), abs=1e-6)

    def test_fourth_order_error_decay(self):
        exact = 1.0 + 4.0 * math.exp(-0.4)

        def integrate(dt):
            s = fixed(SOLO, [[5.0]], SOLO_LEADER, dt=dt, t_final=0.4)
            return simulate(s).states[-1, 0]

        err_coarse = abs(integrate(0.1) - exact)
        err_fine = abs(integrate(0.05) - exact)
        assert 10.0 <= err_coarse / err_fine <= 25.0


ROWS = 64  # rows per closed-form block in the tests that cross blocks


@pytest.fixture()
def block_rows(monkeypatch):
    """Give ``_segment`` blocks of ``rows`` rows on states of ``cells``
    cells, through the state-cell budget ``_CELLS``."""
    def set_rows(cells, rows=ROWS):
        monkeypatch.setattr(dynamics, "_CELLS", rows * cells)
    return set_rows


def chained_scenario():
    """Segments of 1, ROWS and ROWS + 1 steps, each starting where the
    previous one ended, on states of 5 cells."""
    dt = 0.01
    starts = (0, 1, 1 + ROWS)
    return Scenario(
        m=1,
        x_init=[[5.0], [5.5], [6.0], [7.0], [6.5]],
        leaders=LeaderSet(((1.0,), (2.0,))),
        topologies=((1, example_one_topology("base")),
                    (2, example_one_topology("relay-5"))),
        schedule=SwitchingSchedule(tuple((a * dt, 1 + i % 2) for i, a in enumerate(starts))),
        dt=dt,
        t_final=(2 * ROWS + 2) * dt,
    )


def assert_matches_loop(s):
    """simulate's closed form reproduces the step-by-step RK4 loop."""
    want = rk4_loop(s)
    got = simulate(s).states
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, float(np.abs(want).max()))


class TestClosedForm:
    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_builtins_match_loop(self, name):
        assert_matches_loop(builtin_scenario(name))

    @given(seed=st.integers(0, 10**6), connected=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_settle_scenarios_match_loop(self, seed, connected):
        # leaderless draws put (numerically) zero eigenvalues of H on the schedule
        assert_matches_loop(settle_scenario(rng_for(seed), connected=connected, n_max=8))

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_switched_scenarios_match_loop(self, seed):
        assert_matches_loop(random_switched_scenario(rng_for(seed)))

    @pytest.mark.parametrize("steps", [1, ROWS, ROWS + 1])
    def test_segment_lengths_match_loop(self, steps, block_rows):
        block_rows(5)
        x0 = [[5.0], [5.5], [6.0], [7.0], [6.5]]
        leaders = LeaderSet(((1.0,), (2.0,)))
        assert_matches_loop(fixed(example_one_topology("base"), x0, leaders,
                                  dt=0.01, t_final=steps * 0.01))

    def test_chained_segments_match_loop(self, block_rows):
        block_rows(5)
        assert_matches_loop(chained_scenario())

    def test_exact_zero_mode_holds_still(self):
        # H = [[0]]: the lone agent has neither neighbors nor leader links
        alone = Topology(AgentGraph(1), LeaderLinks(1, 1))
        s = fixed(alone, [[3.0]], SOLO_LEADER, dt=0.5, t_final=50.0)
        assert s.topology(1).spectrum[0][0] == 0.0
        np.testing.assert_array_equal(simulate(s).states, 3.0)
        np.testing.assert_array_equal(terminal_state(s), s.x_init)

    def test_zero_mode_recurrence_is_linear_in_steps(self, block_rows):
        # RK4 on x' = g with H = 0 gives x_j = x_0 + j dt g, the zp -> 0 limit
        block_rows(1)
        steps = np.arange(1, ROWS + 2)
        out = np.empty((len(steps), 1))
        _segment(out, np.array([3.0]), steps, np.zeros(1), np.eye(1),
                 np.array([[0.5]]), 0.25)
        np.testing.assert_allclose(out[:, 0], 3.0 + 0.125 * steps, rtol=0, atol=1e-12)

    def test_sparse_steps_match_full_evaluation(self, block_rows):
        # the chosen steps fall in different ROWS blocks of the full evaluation
        block_rows(10)
        topo = example_one_topology("base")
        lam, v = topo.spectrum
        f = topo.link_weights @ np.array([[1.0, 0.0], [2.0, 1.0]])
        x0 = np.linspace(5.0, 7.0, 10)  # 5 agents in R^2, agent-major

        def evaluate(steps):
            out = np.empty((len(steps), 10))
            _segment(out, x0, steps, lam, v, f, 0.01)
            return out

        chosen = np.array([1, ROWS, ROWS + 1, 3 * ROWS])
        full = evaluate(np.arange(1, 3 * ROWS + 1))
        np.testing.assert_array_equal(evaluate(chosen), full[chosen - 1])

    @pytest.mark.parametrize("cells,budget,blocks", [
        (5, 5 * ROWS + 4, [ROWS, ROWS, 1]),
        (5, 4, [1] * (2 * ROWS + 1)),
        (10, 1 << 16, [2 * ROWS + 1]),
    ], ids=["rows-of-the-budget", "one-row-below-it", "whole-segment"])
    def test_blocks_take_the_rows_the_cells_budget_holds(self, cells, budget, blocks,
                                                         monkeypatch):
        # each block takes one expm1 of its (rows, n) exponents; a budget
        # below one row's cells still gives blocks of one row
        monkeypatch.setattr(dynamics, "_CELLS", budget)
        seen = []
        expm1 = np.expm1
        monkeypatch.setattr(np, "expm1", lambda e: seen.append(len(e)) or expm1(e))
        out = np.empty((2 * ROWS + 1, cells))
        _segment(out, np.zeros(cells), np.arange(1, 2 * ROWS + 2), np.ones(cells),
                 np.eye(cells), np.ones((cells, 1)), 0.01)
        assert seen == blocks

    @pytest.mark.parametrize("name", ["example2", "switched"])
    def test_block_size_changes_no_bit(self, name, block_rows):
        s = builtin_scenario(name)
        want = simulate(s).states
        for rows in (1, ROWS, s.step_count):
            block_rows(s.n * s.m, rows)
            np.testing.assert_array_equal(simulate(s).states, want)


class TestTerminalState:
    """terminal_state evaluates each segment's last step only and lands on
    simulate's last row bit for bit."""

    @staticmethod
    def assert_matches_simulate(s):
        np.testing.assert_array_equal(terminal_state(s), simulate(s).final_state)

    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_builtins(self, name):
        self.assert_matches_simulate(builtin_scenario(name))

    def test_chained_segments(self, block_rows):
        block_rows(5)
        self.assert_matches_simulate(chained_scenario())

    @given(seed=st.integers(0, 10**6), connected=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_settle_scenarios(self, seed, connected):
        self.assert_matches_simulate(settle_scenario(rng_for(seed), connected=connected))

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_switched_scenarios(self, seed):
        self.assert_matches_simulate(random_switched_scenario(rng_for(seed)))


class TestScenarioValidation:
    def test_empty_agent_set_rejected(self):
        with pytest.raises(ScenarioError):
            fixed(SOLO, np.zeros((0, 1)), SOLO_LEADER)

    @pytest.mark.parametrize("entries, message", [
        (((0.0, 1), (0.0, 2)), "schedule times must be strictly increasing"),
        ((), "schedule needs at least one entry"),
    ], ids=["repeated-time", "empty"])
    def test_schedule_entries_checked(self, entries, message):
        with pytest.raises(ScenarioError, match=message):
            SwitchingSchedule(entries)

    @pytest.mark.parametrize("fields, message", [
        ({"x_init": [[math.nan]]}, "x_init must be finite"),
        ({"x_init": [[math.inf]]}, "x_init must be finite"),
        ({"topologies": ()}, "need at least one topology"),
        ({"topologies": ((1, SOLO), (1, SOLO))}, "topology ids must be unique"),
        ({"topologies": ((1, SOLO), (2, CHAIN2))}, "topology 2 has 2 agents, expected 1"),
        ({"topologies": ((1, SOLO), (3, Topology(AgentGraph(1), LeaderLinks(1, 2))))},
         "topology 3 links 2 leaders, expected 1"),
    ], ids=["nan-x_init", "inf-x_init", "no-topologies", "duplicate-ids",
            "agent-count", "leader-count"])
    def test_rejects_inconsistent_fields(self, fields, message):
        with pytest.raises(ScenarioError, match=f"^{message}$"):
            Scenario(**{"m": 1, "x_init": [[0.0]], "leaders": SOLO_LEADER,
                        "topologies": ((1, SOLO),),
                        "schedule": SwitchingSchedule(((0.0, 1),)),
                        "dt": 0.01, "t_final": 1.0} | fields)

    def test_rejects_non_positive_dt(self):
        for dt, message in ((0.0, "dt must be positive"), (-0.01, "dt must be positive"),
                            (math.nan, "dt must be finite, got nan"),
                            (math.inf, "dt must be finite, got inf")):
            with pytest.raises(ScenarioError, match=message):
                fixed(SOLO, [[0.0]], SOLO_LEADER, dt=dt)

    def test_rejects_non_finite_t_final(self):
        # inf once read "t_final must exceed t0", and nan the same
        for t_final in (math.inf, -math.inf, math.nan):
            with pytest.raises(ScenarioError, match=f"t_final must be finite, got {t_final}"):
                fixed(SOLO, [[0.0]], SOLO_LEADER, t_final=t_final)

    def test_rk4_stability_boundary(self):
        # SOLO has lambda = 1; RK4 is stable on the real axis up to dt ~ 2.785
        fixed(SOLO, [[0.0]], SOLO_LEADER, dt=2.78, t_final=2.78)
        with pytest.raises(ScenarioError, match="unstable"):
            fixed(SOLO, [[0.0]], SOLO_LEADER, dt=2.79, t_final=2.79)

    def test_rk4_limit_decides_as_the_stability_polynomial(self):
        grid = np.linspace(0.0, 5.0, 2_000_001).tolist()
        assert [not x < _RK4_LIMIT for x in grid] == [rk4_unstable(x) for x in grid]

    def test_rk4_gate_decides_as_the_stability_polynomial_near_the_limit(self):
        # SOLO has lambda_max = 1 exactly, so dt * lambda_max is dt itself
        below = np.nextafter(_RK4_LIMIT, 0.0)
        assert rk4_unstable(_RK4_LIMIT) and not rk4_unstable(below)
        for dt in (_RK4_LIMIT + np.arange(-2000, 2001) * np.spacing(below)).tolist():
            if rk4_unstable(dt):
                with pytest.raises(ScenarioError, match="unstable"):
                    fixed(SOLO, [[0.0]], SOLO_LEADER, dt=dt, t_final=dt)
            else:
                fixed(SOLO, [[0.0]], SOLO_LEADER, dt=dt, t_final=dt)

    @pytest.mark.parametrize("weight, dt", [(1.0, 1e200), (1e10, 1e300)],
                             ids=["cube-overflows", "product-overflows"])
    def test_huge_step_is_unstable(self, weight, dt):
        # at dt * lambda = 1e200, z ** 3 of a Python float raised OverflowError;
        # at dt * lambda = inf, the polynomial was nan, which passed the gate
        heavy = Topology(AgentGraph(1), LeaderLinks(1, 1, ((1, 1, weight),)))
        with pytest.raises(ScenarioError, match="unstable"):
            fixed(heavy, [[0.0]], SOLO_LEADER, dt=dt, t_final=dt)

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

    def test_start_checked_on_the_grid_at_small_dt(self):
        # an absolute 1e-9 start test let a start five steps late through
        with pytest.raises(ScenarioError, match="must start at t0"):
            Scenario(m=1, x_init=[[0.0]], leaders=SOLO_LEADER, topologies=((1, SOLO),),
                     schedule=SwitchingSchedule(((5e-10, 1),)), dt=1e-10, t_final=1e-8)

    def test_switches_on_one_step_are_rejected(self):
        # the second and third times round to the same step: a zero-step segment
        entries = ((0.0, 1), (1e-10, 2), (1e-10 + 1e-17, 1))
        with pytest.raises(ScenarioError, match="shorter than one step"):
            Scenario(m=1, x_init=[[0.0]], leaders=SOLO_LEADER,
                     topologies=((1, SOLO), (2, SOLO)),
                     schedule=SwitchingSchedule(entries), dt=1e-10, t_final=1e-8)

    def test_overflowing_horizon_is_rejected(self):
        s = fixed(SOLO, [[0.0]], SOLO_LEADER)
        with pytest.raises(ScenarioError, match="not a finite number of steps"):
            dataclasses.replace(s, t0=-1e308, t_final=1e308)
        with pytest.raises(ScenarioError, match="t0 must be finite"):
            dataclasses.replace(s, t0=-math.inf)

    def test_switch_at_horizon_is_rejected(self):
        entries = ((0.0, 1), (1.0 - 1e-12, 1))
        with pytest.raises(ScenarioError, match="at or after the horizon"):
            Scenario(m=1, x_init=[[0.0]], leaders=SOLO_LEADER, topologies=((1, SOLO),),
                     schedule=SwitchingSchedule(entries), dt=0.01, t_final=1.0)


class TestEquilibrium:
    def test_solo(self):
        w, x_star = equilibrium(SOLO, SOLO_LEADER)
        np.testing.assert_allclose(w, [[1.0]])
        np.testing.assert_allclose(x_star, [[1.0]])

    def test_chain_hand_solution(self):
        w, x_star = equilibrium(CHAIN2, SOLO_LEADER)
        np.testing.assert_allclose(w, [[1.0], [1.0]], atol=1e-12)
        np.testing.assert_allclose(x_star, [[1.0], [1.0]], atol=1e-12)
        assert (w >= -1e-9).all() and (np.abs(w.sum(axis=1) - 1.0) <= 1e-9).all()

    def test_two_leaders_midpoint(self):
        t = Topology(AgentGraph(1), LeaderLinks(1, 2, ((1, 1, 1.0), (1, 2, 1.0))))
        leaders = LeaderSet(((0.0,), (4.0,)))
        w, x_star = equilibrium(t, leaders)
        np.testing.assert_allclose(w, [[0.5, 0.5]], atol=1e-12)
        assert x_star[0, 0] == pytest.approx(2.0)

    def test_disconnected_raises(self):
        t = Topology(AgentGraph(2), LeaderLinks(2, 1, ((1, 1, 1.0),)))
        with pytest.raises(NotAllConnectedError, match=r"leaderless component \{2\}"):
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


def assert_segments_tile_the_grid(s):
    """Segments run from step 0 to step_count, contiguous and each at least
    one step long, as the rounded schedule times give them."""
    segs = s.segments
    assert segs[0][0] == 0 and segs[-1][1] == s.step_count
    assert all(a < b for a, b, _ in segs)
    assert all(b == a_next for (_, b, _), (a_next, _, _) in zip(segs, segs[1:]))
    assert list(segs) == grid_segments(s)


class TestSegments:
    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_builtins(self, name):
        assert_segments_tile_the_grid(builtin_scenario(name))

    @given(seed=st.integers(0, 10**6), connected=st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_settle_scenarios(self, seed, connected):
        assert_segments_tile_the_grid(settle_scenario(rng_for(seed), connected=connected))

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_switched_scenarios(self, seed):
        assert_segments_tile_the_grid(random_switched_scenario(rng_for(seed)))

    def test_chained_segments(self):
        assert chained_scenario().segments == ((0, 1, 1), (1, 1 + ROWS, 2),
                                               (1 + ROWS, 2 * ROWS + 2, 1))
