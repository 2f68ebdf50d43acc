import dataclasses
import json
import math

import numpy as np
import pytest

from containment import analysis, sampling
from containment.analysis import (
    CHECK_NAMES,
    VerificationReport,
    check_lemma1,
    check_lemma2,
    check_row_stochastic,
    check_scenario,
    check_theorem1,
    check_theorem2,
    decay_envelope,
    leader_pull_monotonicity,
    run_random_campaign,
    write_report,
)
from containment.builtin import (
    EXAMPLE_ONE_PULL_LINKS,
    builtin_scenario,
    example_one,
    example_one_topology,
    necessity_demo,
    switched_demo,
)
from containment.cli import main
from containment.dynamics import Scenario, SwitchingSchedule, equilibrium, simulate
from containment.geometry import LeaderSet, d_xi
from containment.graph import (
    AgentGraph,
    LeaderLinks,
    NotAllConnectedError,
    Topology,
)


def path(n):
    return AgentGraph(n, tuple((i, i + 1, 1.0) for i in range(1, n)))


class TestLemma1:
    def test_connected_path(self):
        rep = check_lemma1(path(3))
        assert rep.passed
        assert rep.value("lambda2") == pytest.approx(1.0, abs=1e-9)
        assert rep.value("component_count") == 1

    def test_two_components(self):
        rep = check_lemma1(AgentGraph(4, ((1, 2, 1.0), (3, 4, 1.0))))
        assert rep.passed
        assert rep.value("lambda2") <= 1e-9
        assert rep.value("zero_multiplicity") == 2

    def test_single_node(self):
        rep = check_lemma1(AgentGraph(1))
        assert rep.passed
        assert rep.value("lambda1") == 0.0
        with pytest.raises(KeyError):
            rep.value("lambda2")


class TestLemma2:
    def test_connected_chain(self):
        t = Topology(path(2), LeaderLinks(2, 1, ((1, 1, 1.0),)))
        rep = check_lemma2(t)
        assert rep.passed
        # eigenvalues of [[2,-1],[-1,1]] are (3 +/- sqrt(5)) / 2
        assert rep.value("lambda_min") == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-9)

    def test_no_links(self):
        rep = check_lemma2(Topology(path(3), LeaderLinks(3, 1)))
        assert rep.passed
        assert rep.value("lambda_min") == pytest.approx(0.0, abs=1e-9)
        assert rep.value("leader_connected") == 0.0

    def test_leaderless_isolated_agent(self):
        g = AgentGraph(3, ((1, 2, 1.0),))
        rep = check_lemma2(Topology(g, LeaderLinks(3, 1, ((1, 1, 1.0),))))
        assert rep.passed
        assert rep.value("lambda_min") <= 1e-9


class TestIllConditioned:
    # leader-connected topologies whose weights span ten decades: a zero
    # threshold of 1e-9 lambda_max (about 20) called lambda_min = 0.5 and
    # lambda2 = 1.5 zero, failing both lemmas; eigh's rounding is ~1e-5 here
    def test_lemma1_weak_edge_is_connected(self):
        rep = check_lemma1(AgentGraph(3, ((1, 2, 1e10), (2, 3, 1.0))))
        assert rep.passed
        assert rep.value("lambda2") == pytest.approx(1.5, abs=1e-3)
        assert rep.value("zero_multiplicity") == 1
        assert 0.0 < rep.value("zero_threshold") <= 1e-3

    def test_lemma2_stiff_edge_is_positive_definite(self):
        t = Topology(AgentGraph(2, ((1, 2, 1e10),)), LeaderLinks(2, 1, ((1, 1, 1.0),)))
        rep = check_lemma2(t)
        assert rep.passed
        assert rep.value("lambda_min") == pytest.approx(0.5, abs=1e-3)
        assert 0.0 < rep.value("zero_threshold") <= 1e-3

    @pytest.mark.parametrize("check", [check_lemma1, check_lemma2])
    def test_threshold_is_eigh_rounding(self, check):
        # ten times n eps lambda_max, reported with the spectral scale
        rep = check(path(3) if check is check_lemma1
                    else Topology(path(3), LeaderLinks(3, 1, ((1, 1, 1.0),))))
        eps = np.finfo(float).eps
        assert rep.value("zero_threshold") == 10.0 * eps * 3 * rep.value("spectral_scale")
        assert rep.tolerance == 10.0 * eps


def scaled_topology(t, c):
    """The topology with every edge and leader-link weight multiplied by c."""
    return Topology(
        AgentGraph(t.graph.n, tuple((i, j, w * c) for i, j, w in t.graph.edges)),
        LeaderLinks(t.leaders.n, t.leaders.k,
                    tuple((a, q, w * c) for a, q, w in t.leaders.links)),
    )


class TestWeightScale:
    # an absolute zero threshold failed lemma1 and lemma2 at 1e-10 (lambda_min
    # = 2e-11) and lemma1 at 1e10 (lambda1 = -2e-7 is rounding at that scale)
    @pytest.mark.parametrize("c", [1e-10, 1e10])
    def test_lemma_verdicts_do_not_depend_on_weight_scale(self, c):
        t = scaled_topology(example_one_topology("base"), c)
        lemma1, lemma2 = check_lemma1(t.graph), check_lemma2(t)
        assert lemma1.passed and lemma2.passed
        assert lemma1.value("spectral_scale") == pytest.approx(
            c * check_lemma1(example_one_topology("base").graph).value("spectral_scale"))
        assert lemma2.value("leader_connected") == 1.0

    # random weights leave rounding residue in the Laplacian's row sums, which
    # an absolute 1e-12 row-sum threshold failed at 1e6 (2e-10 against a
    # spectral scale of 4.5e6); unit weights sum to exactly 0 and hid it
    @pytest.mark.parametrize("c", [1e-10, 1e-6, 1e6, 1e10])
    def test_lemma1_on_random_weights_does_not_depend_on_weight_scale(self, c):
        for trial in range(50):
            g = sampling.random_graph(sampling.rng_for(11, trial))
            scaled = AgentGraph(g.n, tuple((i, j, w * c) for i, j, w in g.edges))
            assert check_lemma1(scaled).passed, trial


def theorem1_oracle(s) -> dict[str, float]:
    """check_theorem1's verdict and the values it derives from the final
    state, read off the full trajectory."""
    traj = simulate(s)
    topo = s.topology(s.schedule.entries[0][1])
    final, d_final = traj.final_state, float(traj.d_xi[-1])
    if not topo.leaderless_components:
        _, x_star = equilibrium(topo, s.leaders)
        dev = float(np.abs(final - x_star).max())
        return {"passed": d_final <= 0.5e-6 * s.n and dev <= 1e-3, "leader_connected": 1.0,
                "final_d_xi": d_final, "max_dev_from_equilibrium": dev}
    idx = [[i - 1 for i in comp] for comp in topo.leaderless_components]
    agents = [i for comp in idx for i in comp]
    targets = np.array([s.x_init[comp].mean(axis=0) for comp in idx for _ in comp])
    d_pred = d_xi(targets, s.leaders)
    stray = float(np.abs(final[agents] - targets).max())
    generic = d_pred > analysis.SPECTRAL_TOL
    return {"passed": not generic or (d_final >= 0.5 * d_pred and stray <= 1e-2),
            "leader_connected": 0.0, "final_d_xi": d_final, "leaderless_max_dev": stray}


class TestTheorem1:
    def test_connected_builtin(self):
        rep = check_theorem1(example_one("base"))
        assert rep.passed
        assert rep.value("leader_connected") == 1.0
        assert rep.value("max_dev_from_equilibrium") <= 1e-3
        assert rep.value("final_d_xi") <= 0.5e-6 * 5

    def test_disconnected_settles_on_component_mean(self):
        rep = check_theorem1(necessity_demo())
        assert rep.passed
        # agents 4, 5 average to 6.75; distance 4.75 to the segment each
        assert rep.value("predicted_d_xi") == pytest.approx(22.5625, abs=1e-9)
        assert rep.value("final_d_xi") == pytest.approx(22.5625, abs=1e-2)
        assert rep.value("leaderless_max_dev") <= 1e-2
        assert "mean" in rep.narrative

    def test_disconnected_non_generic_start(self):
        # leaderless singleton starting inside the hull: containment happens
        # anyway and the report flags the initial condition as non-generic
        topo = Topology(
            AgentGraph(2),
            LeaderLinks(2, 2, ((1, 1, 1.0),)),
        )
        s = Scenario(
            m=1,
            x_init=[[5.0], [1.5]],
            leaders=LeaderSet(((1.0,), (2.0,))),
            topologies=((1, topo),),
            schedule=SwitchingSchedule(((0.0, 1),)),
            dt=0.01,
            t_final=30.0,
        )
        rep = check_theorem1(s)
        assert rep.passed
        assert rep.value("predicted_d_xi") <= 1e-9
        assert "non-generic" in rep.narrative

    def test_requires_single_entry_schedule(self):
        with pytest.raises(ValueError):
            check_theorem1(switched_demo())

    def test_short_horizon_fails_honestly(self):
        import dataclasses

        s = dataclasses.replace(example_one("base"), t_final=1.0)
        rep = check_theorem1(s)
        assert not rep.passed

    @pytest.mark.parametrize("connected", [True, False])
    def test_reads_the_terminal_state_without_simulating(self, monkeypatch, connected):
        def no_simulate(s):
            raise AssertionError("theorem 1 needs only the terminal state")

        monkeypatch.setattr(analysis, "simulate", no_simulate)
        rep = check_theorem1(sampling.settle_scenario(sampling.rng_for(2), connected=connected))
        assert rep.passed
        assert rep.value("leader_connected") == float(connected)

    def test_matches_simulate_oracle(self):
        for trial in range(100):
            s = sampling.settle_scenario(sampling.rng_for(1, trial), connected=trial % 2 == 0)
            rep, want = check_theorem1(s), theorem1_oracle(s)
            assert rep.passed == want["passed"], trial
            for label, value in want.items():
                if label not in ("passed", "final_d_xi"):
                    assert rep.value(label) == value, (trial, label)
            # the lone final state and the trajectory batch share one fit
            # kernel, and an interior point is at distance exactly 0 whichever
            # simplex holds it, so they agree bit for bit
            assert rep.value("final_d_xi") == want["final_d_xi"], trial


class TestTheorem2:
    def test_switched_demo(self):
        rep = check_theorem2(switched_demo())
        assert rep.passed
        assert rep.value("lambda1") == pytest.approx(0.216003272, abs=1e-6)
        assert rep.value("max_envelope_ratio") <= 1.0
        assert rep.value("max_monotonicity_excess") <= 0.0

    def test_rejects_disconnected(self):
        with pytest.raises(NotAllConnectedError):
            check_theorem2(necessity_demo())

    def test_start_inside_hull(self):
        topo = example_one_topology("base")
        s = Scenario(
            m=1,
            x_init=[[1.1], [1.3], [1.5], [1.7], [1.9]],
            leaders=LeaderSet(((1.0,), (2.0,))),
            topologies=((1, topo),),
            schedule=SwitchingSchedule(((0.0, 1),)),
            dt=0.01,
            t_final=5.0,
        )
        rep = check_theorem2(s)
        assert rep.passed
        assert rep.value("initial_d_xi") <= 1e-12
        assert rep.value("final_d_xi") <= 1e-9

    def test_envelope_helper(self):
        times = np.array([0.0, 1.0, 2.0])
        env = decay_envelope(times, 8.0, 0.5)
        np.testing.assert_allclose(env, 8.0 * np.exp(-0.5 * times) * 1.001)

    def test_single_topology_reduces_to_exponential_convergence(self):
        rep = check_theorem2(example_one("base"))
        assert rep.passed
        assert rep.value("initial_d_xi") == pytest.approx(41.25)
        assert rep.value("max_envelope_ratio") <= 1.0


class TestOverflowingWeights:
    # each weight is finite but agent 2's degree, or agent 1's link sum, is
    # not: a numerics fault, not a theorem failure; numpy's overflow warning
    # would fail these tests, because the pytest configuration makes it an error
    CHAIN = AgentGraph(3, ((1, 2, 1e308), (2, 3, 1e308)))
    DEGREE = Topology(CHAIN, LeaderLinks(3, 1, ((1, 1, 1.0),)))
    LINKS = Topology(AgentGraph(2, ((1, 2, 1.0),)),
                     LeaderLinks(2, 2, ((1, 1, 1e308), (1, 2, 1e308))))

    def test_lemma1(self):
        with pytest.raises(ValueError, match="^agent 2: its summed weights overflow"):
            check_lemma1(self.CHAIN)

    @pytest.mark.parametrize("check", [check_lemma2, check_row_stochastic])
    def test_topology_checks(self, check):
        for t, agent in ((self.DEGREE, 2), (self.LINKS, 1)):
            with pytest.raises(ValueError, match=f"^agent {agent}: its summed weights"):
                check(t)


class TestRowStochastic:
    def test_chain(self):
        t = Topology(path(2), LeaderLinks(2, 1, ((1, 1, 1.0),)))
        rep = check_row_stochastic(t)
        assert rep.passed
        assert rep.value("max_row_sum_error") <= 1e-9
        assert rep.value("min_h_inverse_entry") >= -1e-9

    def test_symmetric_two_leaders(self):
        t = Topology(AgentGraph(1), LeaderLinks(1, 2, ((1, 1, 1.0), (1, 2, 1.0))))
        rep = check_row_stochastic(t)
        assert rep.passed
        assert rep.value("min_weight") == pytest.approx(0.5, abs=1e-12)

    @staticmethod
    def report_for_solution(monkeypatch, solved):
        # one agent and two leaders: Topology.solve returns [W | H^-1] as one row
        monkeypatch.setattr(Topology, "solve", lambda self, rhs: np.array(solved))
        t = Topology(AgentGraph(1), LeaderLinks(1, 2, ((1, 1, 1.0), (1, 2, 1.0))))
        return check_row_stochastic(t)

    def test_negative_weight_fails(self, monkeypatch):
        rep = self.report_for_solution(monkeypatch, [[1.2, -0.2, 0.5]])
        assert not rep.passed
        assert rep.value("min_weight") == pytest.approx(-0.2)

    def test_row_sum_off_fails(self, monkeypatch):
        rep = self.report_for_solution(monkeypatch, [[0.5, 0.4, 0.5]])
        assert not rep.passed
        assert rep.value("max_row_sum_error") == pytest.approx(0.1)

    def test_tiny_link_weight_is_a_verdict_not_an_error(self):
        # agent 1 of a unit 1-2-3 chain links its leader with weight 1e-13:
        # the topology is leader-connected, so the check reports, although the
        # rounded H is too close to singular for unit row sums
        t = Topology(path(3), LeaderLinks(3, 1, ((1, 1, 1e-13),)))
        rep = check_row_stochastic(t)
        assert rep.name == "row-stochastic"
        assert rep.value("max_row_sum_error") > rep.tolerance
        assert not rep.passed

    def test_rejects_leaderless(self):
        t = Topology(path(2), LeaderLinks(2, 1))
        with pytest.raises(NotAllConnectedError, match=r"leaderless component \{1, 2\}"):
            check_row_stochastic(t)

    def test_value_inside_tolerance_band_passes(self, monkeypatch):
        rep = self.report_for_solution(monkeypatch, [[0.5 + 5e-10, 0.5, 0.5]])
        assert rep.passed
        assert 0.0 < rep.value("max_row_sum_error") <= rep.tolerance


class TestLeaderPull:
    LEADERS = LeaderSet(((1.0,), (2.0,)))

    def test_doubling_a_link_moves_toward_leader(self):
        base = Topology(AgentGraph(1), LeaderLinks(1, 2, ((1, 1, 1.0), (1, 2, 1.0))))
        extra = LeaderLinks(1, 2, ((1, 1, 1.0),))
        rep = leader_pull_monotonicity(base, extra, self.LEADERS)
        assert rep.passed
        # weights become (2, 1) / 3, so the distance to leader 1 is 1/3
        assert rep.value("base_mean_distance") == pytest.approx(0.5, abs=1e-12)
        assert rep.value("augmented_mean_distance") == pytest.approx(1 / 3, abs=1e-12)

    def test_zero_additions_equal(self):
        base = example_one_topology("base")
        rep = leader_pull_monotonicity(base, LeaderLinks(5, 2), self.LEADERS)
        assert rep.passed
        assert rep.value("decrease") == pytest.approx(0.0, abs=1e-12)

    def test_example_variant_decrease(self):
        base = example_one_topology("base")
        rep = leader_pull_monotonicity(base, EXAMPLE_ONE_PULL_LINKS, self.LEADERS)
        assert rep.passed
        assert rep.value("decrease") >= 1e-3

    def test_more_links_variant_is_base_plus_pull_links(self):
        links = example_one_topology("more-links").leaders.links
        assert links == ((1, 1, 1.0), (2, 1, 1.0), (3, 1, 1.0), (3, 2, 1.0), (4, 1, 1.0))

    def test_rejects_mixed_targets(self):
        base = example_one_topology("base")
        extra = LeaderLinks(5, 2, ((2, 1, 1.0), (4, 2, 1.0)))
        with pytest.raises(ValueError):
            leader_pull_monotonicity(base, extra, self.LEADERS)

    def test_rejects_disconnected_base(self):
        base = Topology(AgentGraph(2), LeaderLinks(2, 2, ((1, 1, 1.0),)))
        with pytest.raises(NotAllConnectedError, match=r"leaderless component \{2\}"):
            leader_pull_monotonicity(base, LeaderLinks(2, 2), self.LEADERS)


class TestCheckScenario:
    @pytest.mark.parametrize("check, direct", [
        ("lemma1", lambda s: check_lemma1(s.topology(1).graph)),
        ("lemma2", lambda s: check_lemma2(s.topology(1))),
        ("theorem1", check_theorem1),
        ("theorem2", check_theorem2),
        ("row-stochastic", lambda s: check_row_stochastic(s.topology(1))),
    ])
    def test_single_topology_returns_the_checks_own_report(self, check, direct):
        s = example_one("relay-5")
        assert check_scenario(check, s) == direct(s)

    @pytest.mark.parametrize("check, direct", [
        ("lemma1", lambda t: check_lemma1(t.graph)),
        ("lemma2", check_lemma2),
        ("row-stochastic", check_row_stochastic),
    ])
    def test_switched_matches_direct_calls_per_topology(self, check, direct):
        s = switched_demo()
        rep = check_scenario(check, s)
        assert rep.name == check
        assert rep.narrative == "3 topologies checked"
        parts = [(pid, direct(t)) for pid, t in s.topologies]
        assert rep.passed == all(r.passed for _, r in parts)
        assert rep.measured == tuple((f"topology{pid}_{label}", v)
                                     for pid, r in parts for label, v in r.measured)

    @pytest.mark.parametrize("check, default", [
        ("lemma1", "example1-base"),
        ("lemma2", "example1-base"),
        ("theorem1", "example1-base"),
        ("theorem2", "switched"),
        ("row-stochastic", "example1-base"),
    ])
    def test_default_scenario(self, check, default, tmp_path):
        expected = check_scenario(check, builtin_scenario(default))
        assert check_scenario(check) == expected
        assert main(["verify", check, "--out", str(tmp_path)]) == (0 if expected.passed else 1)
        assert json.loads((tmp_path / f"{check}.json").read_text()) == expected.to_json_dict()

    def test_leader_pull_default_is_example_one_pull(self, tmp_path):
        base = example_one("base")
        expected = leader_pull_monotonicity(base.topology(1), EXAMPLE_ONE_PULL_LINKS,
                                            base.leaders)
        assert check_scenario("leader-pull") == expected
        assert main(["verify", "leader-pull", "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "leader-pull.json").read_text()) == expected.to_json_dict()

    @pytest.mark.parametrize("check", ["leader-pull", "nope"])
    def test_rejects_checks_that_take_no_scenario(self, check):
        with pytest.raises(ValueError):
            check_scenario(check, example_one("base"))


class TestReports:
    def test_text_and_json(self, tmp_path):
        rep = check_lemma1(path(3))
        text = rep.to_text()
        assert text.startswith("[PASS] lemma1:")
        assert "lambda2 = 1" in text
        txt, js = write_report(rep, tmp_path)
        assert txt.read_text().rstrip().startswith("[PASS]")
        doc = json.loads(js.read_text())
        assert doc["check"] == "lemma1"
        assert doc["passed"] is True
        labels = [label for label, _ in doc["measured"]]
        assert "lambda2" in labels

    def test_failed_report_text(self):
        rep = VerificationReport(
            name="demo", passed=False, measured=(("x", 1.0),), tolerance=1e-3,
            narrative="nope",
        )
        assert rep.to_text().startswith("[FAIL] demo")


class TestCampaigns:
    @pytest.mark.parametrize("check", ["lemma1", "lemma2", "row-stochastic", "leader-pull"])
    def test_fast_campaigns(self, check):
        rep = run_random_campaign(check, 8, seed=3)
        assert rep.passed
        assert rep.value("trials") == 8
        assert rep.value("failures") == 0

    def test_theorem_campaigns(self):
        rep1 = run_random_campaign("theorem1", 4, seed=5)
        assert rep1.passed
        rep2 = run_random_campaign("theorem2", 2, seed=5)
        assert rep2.passed

    def test_rejects_unknown_check(self):
        with pytest.raises(ValueError):
            run_random_campaign("nope", 3, seed=0)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_random_campaign("lemma1", 0, seed=0)

    def test_campaign_is_deterministic(self):
        a = run_random_campaign("row-stochastic", 5, seed=11)
        b = run_random_campaign("row-stochastic", 5, seed=11)
        assert a == b

    def test_failing_campaign_names_first_failed_trial(self, monkeypatch):
        graphs = []

        def fails_on_trials_3_and_5(g):
            graphs.append(g)
            return dataclasses.replace(check_lemma1(g), passed=len(graphs) - 1 not in (3, 5))

        monkeypatch.setattr(analysis, "check_lemma1", fails_on_trials_3_and_5)
        rep = run_random_campaign("lemma1", 8, seed=3)
        assert not rep.passed
        assert rep.value("failures") == 2
        assert rep.value("first_failed_trial") == 3
        assert "first_failed_trial = 3" in rep.to_text()
        assert sampling.random_graph(sampling.rng_for(3, 3)) == graphs[3]

    def test_passing_campaign_has_no_failed_trial(self):
        rep = run_random_campaign("lemma1", 8, seed=3)
        assert [label for label, _ in rep.measured] == ["trials", "failures", "max_abs_lambda1"]


def tracked_oracle(check: str, rng, i: int) -> dict[str, float]:
    """The values a campaign tracks for trial i, from direct check_* calls."""
    if check == "lemma1":
        rep = check_lemma1(sampling.random_graph(rng))
        return {"max_abs_lambda1": abs(rep.value("lambda1"))}
    if check == "lemma2":
        rep = check_lemma2(sampling.random_topology(rng, linked=i % 2 == 0))
        if rep.value("leader_connected"):
            return {"min_lambda_min_connected": rep.value("lambda_min")}
        return {"max_lambda_min_disconnected": rep.value("lambda_min")}
    if check == "theorem1":
        rep = check_theorem1(sampling.settle_scenario(rng, connected=i % 2 == 0))
        if rep.value("leader_connected"):
            return {"max_dev_from_equilibrium": rep.value("max_dev_from_equilibrium")}
        return {"min_final_d_xi_disconnected": rep.value("final_d_xi")}
    if check == "theorem2":
        rep = check_theorem2(sampling.random_switched_scenario(rng))
        return {"max_envelope_ratio": rep.value("max_envelope_ratio")}
    if check == "row-stochastic":
        rep = check_row_stochastic(sampling.random_connected_topology(rng))
        return {"min_weight": rep.value("min_weight"),
                "max_row_sum_error": rep.value("max_row_sum_error")}
    assert check == "leader-pull"
    base, extra, leaders = sampling.random_leader_pull_case(rng)
    return {"min_decrease": leader_pull_monotonicity(base, extra, leaders).value("decrease")}


class TestCampaignTable:
    @pytest.mark.parametrize("check", CHECK_NAMES)
    def test_tracked_extremes_match_direct_checks(self, check):
        seed, trials = 4, 6
        rep = run_random_campaign(check, trials, seed)
        values: dict[str, list[float]] = {}
        for i in range(trials):
            for label, v in tracked_oracle(check, sampling.rng_for(seed, i), i).items():
                values.setdefault(label, []).append(v)
        tracked = {label: v for label, v in rep.measured
                   if label not in ("trials", "failures", "first_failed_trial")}
        assert all(label.startswith(("max_", "min_")) for label in tracked)
        assert tracked == {label: (max if label.startswith("max_") else min)(vs)
                           for label, vs in values.items()}

    def test_leader_pull_case_keeps_its_draw_order(self):
        rng = sampling.rng_for(9, 2)
        base = sampling.random_connected_topology(rng, k=2)
        q = int(rng.integers(1, 3))
        adds = {}
        for agent in range(1, base.graph.n + 1):
            if rng.random() < 0.4:
                adds[agent] = float(rng.uniform(0.5, 2.0))
        if not adds:
            adds[int(rng.integers(1, base.graph.n + 1))] = 1.0
        m = int(rng.integers(1, 4))
        positions = rng.uniform(0.0, 2.0, size=(2, m))
        got_base, extra, leaders = sampling.random_leader_pull_case(sampling.rng_for(9, 2))
        assert got_base == base
        assert extra.links == tuple((a, q, w) for a, w in sorted(adds.items()))
        np.testing.assert_array_equal(leaders.positions, positions)


def count_eig_calls(monkeypatch) -> dict[str, int]:
    """Count numpy.linalg.eigh and eigvalsh calls from now on."""
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestSpectrumReuse:
    """Each Topology's H is eigensolved once, on first read of its spectrum;
    the samplers, Scenario, simulate and the spectral checks all read that
    one decomposition. Counting starts before the draw."""

    def test_large_swarm_style_certification(self, monkeypatch):
        drawn = sampling.settle_scenario(sampling.rng_for(5), connected=True, n_max=30)
        calls = count_eig_calls(monkeypatch)
        topo = Topology(drawn.topology(1).graph, drawn.topology(1).leaders)  # nothing cached
        s = dataclasses.replace(drawn, topologies=((1, topo),))
        assert calls == {"eigh": 1, "eigvalsh": 0}
        reports = (check_lemma1(topo.graph), check_lemma2(topo),
                   check_row_stochastic(topo), check_theorem2(s))
        equilibrium(topo, s.leaders)
        assert all(r.passed for r in reports)
        # lemma1 solves L; everything else reads topo.spectrum or solves H w = B
        assert calls == {"eigh": 1, "eigvalsh": 1}

    def test_switched_scenario_solves_each_scheduled_topology_once(self, monkeypatch):
        calls = count_eig_calls(monkeypatch)
        s = sampling.random_switched_scenario(sampling.rng_for(3), n_topologies=4)
        assert calls == {"eigh": 4, "eigvalsh": 0}  # the draw's dt needs every lambda_max
        assert check_theorem2(dataclasses.replace(s)).passed
        assert calls == {"eigh": 4, "eigvalsh": 0}

    def test_leaderless_theorem1_solves_nothing_more(self, monkeypatch):
        calls = count_eig_calls(monkeypatch)
        s = sampling.settle_scenario(sampling.rng_for(4), connected=False)
        assert check_theorem1(dataclasses.replace(s)).passed
        assert calls == {"eigh": 1, "eigvalsh": 0}

    def test_connected_theorem1_solves_once(self, monkeypatch):
        calls = count_eig_calls(monkeypatch)
        s = sampling.settle_scenario(sampling.rng_for(4), connected=True)
        assert check_theorem1(dataclasses.replace(s)).passed
        assert calls == {"eigh": 1, "eigvalsh": 0}
