import dataclasses
import json
import math

import numpy as np
import pytest

from containment import analysis, sampling
from containment.analysis import (
    NotAllConnectedError,
    VerificationReport,
    check_lemma1,
    check_lemma2,
    check_row_stochastic,
    check_theorem1,
    check_theorem2,
    decay_envelope,
    leader_pull_monotonicity,
    run_random_campaign,
    write_report,
)
from containment.builtin import (
    example_one,
    example_one_topology,
    necessity_demo,
    switched_demo,
)
from containment.dynamics import Scenario, SwitchingSchedule
from containment.geometry import LeaderSet
from containment.graph import AgentGraph, LeaderLinks, Topology


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
        extra = LeaderLinks(5, 2, ((2, 1, 1.0), (3, 1, 1.0), (4, 1, 1.0)))
        rep = leader_pull_monotonicity(base, extra, self.LEADERS)
        assert rep.passed
        assert rep.value("decrease") >= 1e-3

    def test_rejects_mixed_targets(self):
        base = example_one_topology("base")
        extra = LeaderLinks(5, 2, ((2, 1, 1.0), (4, 2, 1.0)))
        with pytest.raises(ValueError):
            leader_pull_monotonicity(base, extra, self.LEADERS)

    def test_rejects_disconnected_base(self):
        base = Topology(AgentGraph(2), LeaderLinks(2, 2, ((1, 1, 1.0),)))
        with pytest.raises(ValueError):
            leader_pull_monotonicity(base, LeaderLinks(2, 2), self.LEADERS)


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
