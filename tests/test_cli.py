import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import plot_data_oracle, polygon_distance

import containment
import containment.cli
from containment.analysis import CHECK_NAMES
from containment.builtin import example_one, example_two
from containment.cli import main
from containment.scenario_io import read_trajectory, scenario_to_dict, write_scenario


@pytest.fixture()
def example_file(tmp_path):
    return str(write_scenario(example_one("base"), tmp_path / "example.json"))


@pytest.fixture()
def unstable_file(tmp_path):
    # example 1 with every weight scaled by 500: dt * lambda_max is about 20.7,
    # far past RK4's stability limit of about 2.785 at dt = 0.01
    doc = scenario_to_dict(example_one("base"))
    for topo in doc["topologies"]:
        for key in ("edges", "leader_links"):
            topo[key] = [[i, j, 500.0 * w] for i, j, w in topo[key]]
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def endless_file(tmp_path):
    # 1e302 steps: more rows than numpy lets an array have, so nothing is allocated
    doc = scenario_to_dict(example_one("base")) | {"t_final": 1e300}
    path = tmp_path / "endless.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def lost_link_file(tmp_path):
    # a unit 1-2-3 chain whose only leader link, 1e-16 on agent 1, vanishes
    # against agent 1's degree when H's diagonal is formed in floating point
    doc = scenario_to_dict(example_one("base")) | {
        "m": 1, "t_final": 1.0, "dt": 0.1,
        "agents": [{"id": i, "position": [float(i)]} for i in (1, 2, 3)],
        "leaders": [{"id": 1, "position": [0.0]}],
        "topologies": [{"id": 1, "edges": [[1, 2, 1.0], [2, 3, 1.0]],
                        "leader_links": [[1, 1, 1e-16]]}],
        "schedule": [{"t": 0.0, "topology": 1}],
    }
    path = tmp_path / "lost_link.json"
    path.write_text(json.dumps(doc))
    return str(path)


def heavy_edge_file(tmp_path, weight):
    """Two agents joined by one edge of ``weight``, agent 1 linked to a leader:
    every weight is finite, and lambda_max of H is about twice ``weight``."""
    doc = scenario_to_dict(example_one("base")) | {
        "m": 1, "t_final": 1.0, "dt": 0.1,
        "agents": [{"id": i, "position": [float(i)]} for i in (1, 2)],
        "leaders": [{"id": 1, "position": [0.0]}],
        "topologies": [{"id": 1, "edges": [[1, 2, weight]], "leader_links": [[1, 1, 1.0]]}],
        "schedule": [{"t": 0.0, "topology": 1}],
    }
    path = tmp_path / "heavy_edge.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def short_trajectory(tmp_path):
    path = tmp_path / "traj.csv"
    assert main(["simulate", "--scenario", "builtin:example1-base", "--out",
                 str(path), "--t-final", "1.0"]) == 0
    return str(path)


@pytest.fixture()
def blocked(tmp_path):
    """An output path whose parent is a regular file, so writing it fails."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    return str(blocker / "out")


class TestSimulate:
    def test_builtin_scenario(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--scenario", "builtin:example1-base",
                     "--out", str(out)]) == 0
        assert out.exists()
        stdout = capsys.readouterr().out
        assert "final d_xi" in stdout
        assert "agent 5:" in stdout

    def test_scenario_file(self, example_file, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--scenario", example_file, "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "t,a1_1,a2_1,a3_1,a4_1,a5_1,d_xi,topology"

    def test_malformed_file_exits_2_without_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ nope")
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--scenario", str(bad), "--out", str(out)]) == 2
        assert not out.exists()
        assert "line 1" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path):
        doc = scenario_to_dict(example_one("base"))
        doc["surprise"] = True
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(bad),
                     "--out", str(tmp_path / "t.csv")]) == 2

    def test_invalid_override_exits_3(self, example_file, tmp_path):
        # 50.0 is not a multiple of 0.007, so the scenario becomes invalid
        assert main(["simulate", "--scenario", example_file,
                     "--out", str(tmp_path / "t.csv"), "--dt", "0.007"]) == 3

    @pytest.mark.parametrize("flag,name", [("--dt", "dt"), ("--t-final", "t_final")])
    def test_non_finite_override_names_its_value(self, example_file, tmp_path, capsys,
                                                 flag, name):
        out = tmp_path / "t.csv"
        assert main(["simulate", "--scenario", example_file, "--out", str(out),
                     flag, "inf"]) == 3
        assert capsys.readouterr().err == f"error: {name} must be finite, got inf\n"
        assert not out.exists()

    def test_unstable_step_exits_3_without_output(self, unstable_file, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["simulate", "--scenario", unstable_file, "--out", str(out)]) == 3
        assert not out.exists()
        assert "unstable" in capsys.readouterr().err

    def test_smaller_step_rescues_unstable_file(self, unstable_file, tmp_path):
        # dt = 0.001 is below the suggested 0.00121, so the override must apply
        # before the file's own dt = 0.01 is checked
        out = tmp_path / "t.csv"
        assert main(["simulate", "--scenario", unstable_file, "--out", str(out),
                     "--dt", "0.001", "--t-final", "1"]) == 0
        assert len(out.read_text().splitlines()) == 1 + 1001
        assert main(["simulate", "--scenario", unstable_file, "--out", str(out),
                     "--t-final", "1"]) == 3

    def test_more_than_twelve_leaders(self, tmp_path, capsys):
        # example 2 with ten extra, unlinked leaders around its triangle
        doc = scenario_to_dict(example_two())
        angles = 2.0 * np.pi * np.arange(10) / 10
        polygon = 1.5 + 2.0 * np.column_stack([np.cos(angles), np.sin(angles)])
        doc["leaders"] += [{"id": 4 + q, "position": list(v)} for q, v in enumerate(polygon)]
        doc["t_final"] = 1.0
        path = tmp_path / "thirteen.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
        # the hull is the decagon, which holds the triangle
        last = np.array(out.read_text().splitlines()[-1].split(","), dtype=float)
        want = 0.5 * (polygon_distance(last[1:-2].reshape(5, 2), polygon) ** 2).sum()
        assert last[-2] == pytest.approx(want, rel=1e-8)

    def test_shorter_horizon_override(self, example_file, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["simulate", "--scenario", example_file, "--out", str(out),
                     "--t-final", "1.0"]) == 0
        assert len(out.read_text().splitlines()) == 1 + 101

    def test_unknown_builtin_exits_2(self, tmp_path):
        assert main(["simulate", "--scenario", "builtin:nope",
                     "--out", str(tmp_path / "t.csv")]) == 2


class TestPaper:
    @pytest.mark.parametrize("variant", ["base", "more-links", "isolated-2", "relay-5"])
    def test_example_one_variants(self, tmp_path, variant, capsys):
        assert main(["paper", "--example", "1", "--variant", variant,
                     "--out", str(tmp_path)]) == 0
        stem = f"example1-{variant}"
        for suffix in (".scenario.json", ".trajectory.csv", ".plot.dat"):
            assert (tmp_path / f"{stem}{suffix}").exists()
        assert "claim:" in capsys.readouterr().out

    def test_example_two(self, tmp_path, capsys):
        assert main(["paper", "--example", "2", "--out", str(tmp_path)]) == 0
        stdout = capsys.readouterr().out
        assert "collinearity residual" in stdout

    def test_writes_through_the_cli_writer_names(self, tmp_path, monkeypatch):
        # the benchmark's corruption test and span hooks patch these names
        calls = []

        def recording(name):
            real = getattr(containment.cli, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("write_trajectory", "write_plot_data"):
            monkeypatch.setattr(containment.cli, name, recording(name))
        assert main(["paper", "--example", "1", "--out", str(tmp_path)]) == 0
        assert calls == ["write_trajectory", "write_plot_data"]

    def test_more_links_reports_decrease(self, tmp_path, capsys):
        main(["paper", "--example", "1", "--variant", "more-links", "--out", str(tmp_path)])
        stdout = capsys.readouterr().out
        assert "smaller by" in stdout
        assert main(["verify", "leader-pull", "--out", str(tmp_path)]) == 0
        report = dict(json.loads((tmp_path / "leader-pull.json").read_text())["measured"])
        assert (
            f"base {report['base_mean_distance']:.6g}, "
            f"this variant {report['augmented_mean_distance']:.6g} "
            f"(smaller by {report['decrease']:.6g})"
        ) in stdout

    def test_unknown_variant_exits_2(self, tmp_path):
        assert main(["paper", "--example", "1", "--variant", "bogus",
                     "--out", str(tmp_path)]) == 2

    def test_example_two_has_single_variant(self, tmp_path):
        assert main(["paper", "--example", "2", "--variant", "more-links",
                     "--out", str(tmp_path)]) == 2

    def test_unknown_example_exits_2(self, tmp_path):
        assert main(["paper", "--example", "3", "--out", str(tmp_path)]) == 2

    def test_isolated_agent_reaches_its_leader(self, tmp_path):
        # agent 2 senses only leader 1, so its limit is leader 1 itself
        main(["paper", "--example", "1", "--variant", "isolated-2",
              "--out", str(tmp_path)])
        last = (tmp_path / "example1-isolated-2.trajectory.csv").read_text()
        agent2_final = float(last.splitlines()[-1].split(",")[2])
        assert abs(agent2_final - 1.0) <= 1e-3

    def test_relay_pulls_agent_5_closer(self, tmp_path):
        finals = {}
        for variant in ("base", "relay-5"):
            main(["paper", "--example", "1", "--variant", variant,
                  "--out", str(tmp_path)])
            csv = (tmp_path / f"example1-{variant}.trajectory.csv").read_text()
            finals[variant] = float(csv.splitlines()[-1].split(",")[5])
        assert abs(finals["relay-5"] - 1.0) < abs(finals["base"] - 1.0)


class TestVerify:
    def test_random_row_stochastic(self, tmp_path):
        assert main(["verify", "row-stochastic", "--random", "20", "--seed", "7",
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "row-stochastic.txt").exists()
        assert (tmp_path / "row-stochastic.json").exists()

    def test_disconnected_builtin_passes_necessity(self, tmp_path, capsys):
        assert main(["verify", "theorem1", "--scenario", "builtin:necessity",
                     "--out", str(tmp_path)]) == 0
        assert "[PASS]" in capsys.readouterr().out

    def test_default_scenarios(self, tmp_path):
        for check in ("lemma1", "lemma2", "theorem1", "row-stochastic", "leader-pull"):
            assert main(["verify", check, "--out", str(tmp_path)]) == 0

    def test_unstable_step_exits_3_not_a_verdict(self, unstable_file, tmp_path, capsys):
        # a diverging integration must not be reported as theorem 1 failing
        assert main(["verify", "theorem1", "--scenario", unstable_file,
                     "--out", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert "unstable" in captured.err
        assert "containment" not in captured.out

    def test_check_flag_alias(self, tmp_path):
        assert main(["verify", "--check", "lemma1", "--out", str(tmp_path)]) == 0

    def test_missing_check_exits_2(self, tmp_path):
        assert main(["verify", "--out", str(tmp_path)]) == 2

    def test_unknown_check_exits_2(self, tmp_path):
        assert main(["verify", "spectral-gap", "--out", str(tmp_path)]) == 2

    def test_lemma2_on_disconnected_builtin(self, tmp_path):
        assert main(["verify", "lemma2", "--scenario", "builtin:necessity",
                     "--out", str(tmp_path)]) == 0

    def test_theorem2_rejects_disconnected(self, tmp_path):
        assert main(["verify", "theorem2", "--scenario", "builtin:necessity",
                     "--out", str(tmp_path)]) == 2

    def test_theorem1_rejects_switched_scenario(self, tmp_path):
        assert main(["verify", "theorem1", "--scenario", "builtin:switched",
                     "--out", str(tmp_path)]) == 2

    def test_row_stochastic_rejects_disconnected(self, tmp_path, capsys):
        assert main(["verify", "row-stochastic", "--scenario", "builtin:necessity",
                     "--out", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: topology 1: leaderless component {4, 5}: "
                       "no leader link reaches these agents\n")
        assert not (tmp_path / "row-stochastic.txt").exists()

    @pytest.mark.parametrize("check", ["row-stochastic", "theorem1"])
    def test_singular_h_of_connected_topology_names_the_rounding(
            self, check, lost_link_file, tmp_path, capsys):
        # a per-topology check names the topology; theorem 1 has only one
        prefix = "topology 1: " if check == "row-stochastic" else ""
        assert main(["verify", check, "--scenario", lost_link_file,
                     "--out", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: {prefix}composite matrix H is singular in floating point "
                       "although every component has a leader link; the smallest link "
                       "weight is 1e-16\n")
        assert not (tmp_path / f"{check}.txt").exists()

    def test_singular_h_names_its_topology_among_several(self, tmp_path, capsys):
        # topology 1 is example 1's base; topology 2 is the same graph whose
        # links of weight 1e-16 vanish against the agents' degrees
        doc = scenario_to_dict(example_one("base"))
        lost = dict(doc["topologies"][0], id=2)
        lost["leader_links"] = [[i, q, 1e-16] for i, q, _ in lost["leader_links"]]
        doc["topologies"].append(lost)
        path = tmp_path / "two.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "row-stochastic", "--scenario", str(path),
                     "--out", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: topology 2: composite matrix H is singular")
        assert err.count("\n") == 1
        assert not (tmp_path / "row-stochastic.txt").exists()

    def test_leader_pull_rejects_scenario(self, example_file, tmp_path, capsys):
        assert main(["verify", "leader-pull", "--scenario", "builtin:example1-base",
                     "--out", str(tmp_path)]) == 2
        assert main(["verify", "leader-pull", "--scenario", example_file,
                     "--out", str(tmp_path)]) == 2
        assert "runs only on its bundled instance" in capsys.readouterr().err
        assert not (tmp_path / "leader-pull.txt").exists()

    def test_failed_check_exits_1(self, tmp_path):
        short = dataclasses.replace(example_one("base"), t_final=1.0)
        path = write_scenario(short, tmp_path / "short.json")
        assert main(["verify", "theorem1", "--scenario", str(path),
                     "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "theorem1.json").read_text())
        assert report["passed"] is False

    def test_multi_topology_scenario_aggregates(self, tmp_path, capsys):
        assert main(["verify", "lemma2", "--scenario", "builtin:switched",
                     "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "lemma2.json").read_text())
        labels = [label for label, _ in report["measured"]]
        assert any(label.startswith("topology1_") for label in labels)
        assert any(label.startswith("topology3_") for label in labels)

    @pytest.mark.parametrize("trials", ["0", "-1", "x"])
    def test_negative_random_exits_2(self, tmp_path, capsys, trials):
        assert main(["verify", "lemma1", "--random", trials, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert err == ("containment verify: error: argument --random: must be a "
                       f"positive integer, not '{trials}'")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_seed_names_its_flag(self, tmp_path, capsys, seed):
        # numpy alone said "expected non-negative integer", naming no flag
        assert main(["verify", "theorem1", "--random", "2", "--seed", seed,
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert err == ("containment verify: error: argument --seed: must be a "
                       f"non-negative integer, not '{seed}'")
        assert not list(tmp_path.iterdir())

    def test_report_files_are_deterministic(self, tmp_path):
        contents = []
        for run in range(2):
            out = tmp_path / f"run{run}"
            assert main(["verify", "row-stochastic", "--random", "10",
                         "--seed", "7", "--out", str(out)]) == 0
            contents.append(
                ((out / "row-stochastic.txt").read_bytes(),
                 (out / "row-stochastic.json").read_bytes())
            )
        assert contents[0] == contents[1]


class TestPlotData:
    def test_round_trip_with_markers(self, tmp_path, capsys):
        traj_path = tmp_path / "traj.csv"
        main(["simulate", "--scenario", "builtin:example1-base", "--out",
              str(traj_path), "--t-final", "1.0"])
        capsys.readouterr()
        out = tmp_path / "plot.dat"
        assert main(["plotdata", str(traj_path), "--out", str(out),
                     "--scenario", "builtin:example1-base"]) == 0
        blocks = out.read_text().split("\n\n\n")
        assert len(blocks) == 6
        assert "6 blocks" in capsys.readouterr().out

    def test_without_scenario(self, tmp_path):
        traj_path = tmp_path / "traj.csv"
        main(["simulate", "--scenario", "builtin:example1-base", "--out",
              str(traj_path), "--t-final", "1.0"])
        assert main(["plotdata", str(traj_path), "--out", str(tmp_path / "p.dat")]) == 0

    def test_paper_example_two_plot_is_reproduced(self, tmp_path):
        assert main(["paper", "--example", "2", "--out", str(tmp_path)]) == 0
        assert main(["plotdata", str(tmp_path / "example2.trajectory.csv"),
                     "--out", str(tmp_path / "r.dat"),
                     "--scenario", "builtin:example2"]) == 0
        assert (tmp_path / "r.dat").read_bytes() == (tmp_path / "example2.plot.dat").read_bytes()

    @pytest.mark.parametrize("scenario", [[], ["--scenario", "builtin:example1-base"]])
    def test_non_canonical_cells_are_reformatted(self, tmp_path, scenario):
        csv = tmp_path / "hand.csv"
        csv.write_text("t,a1_1,a2_1,d_xi,topology\n"
                       "0.0,1.0,+2,0.50,1\n"
                       "0.50,1E-5,0.1000000000001,-0.0,1\n"
                       "1,2.000,-3e+00,1e0,2\n")
        out = tmp_path / "p.dat"
        assert main(["plotdata", str(csv), "--out", str(out), *scenario]) == 0
        leaders = example_one("base").leaders if scenario else None
        assert out.read_text() == plot_data_oracle(read_trajectory(csv), leaders)
        assert "0.50" not in out.read_text() and "1E-5" not in out.read_text()

    def test_empty_trajectory_exits_2(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["plotdata", str(empty), "--out", str(tmp_path / "p.dat")]) == 2


class TestParser:
    def test_no_command_exits_2(self):
        assert main([]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out

    def test_positional_and_flag_check_conflict_exits_2(self, tmp_path, capsys):
        assert main(["verify", "lemma1", "--check", "lemma2", "--out", str(tmp_path)]) == 2
        assert "not allowed with" in capsys.readouterr().err
        assert not (tmp_path / "lemma2.txt").exists()

    def test_verify_help_says_one_check_is_required(self, capsys):
        assert main(["verify", "-h"]) == 0
        assert "exactly one of CHECK and --check" in " ".join(capsys.readouterr().out.split())

    def test_verify_check_choices_are_the_check_catalog(self):
        sub = next(a for a in containment.cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        verify = sub.choices["verify"]
        choices = {a.dest: tuple(a.choices) for a in verify._actions
                   if a.dest in ("check", "check_opt")}
        assert choices == {"check": CHECK_NAMES, "check_opt": CHECK_NAMES}

    def test_scenario_and_random_conflict_exits_2(self, tmp_path, capsys):
        assert main(["verify", "theorem1", "--scenario", "builtin:necessity",
                     "--random", "2", "--out", str(tmp_path)]) == 2
        assert "not allowed with" in capsys.readouterr().err
        assert not (tmp_path / "theorem1.txt").exists()


class TestExitCodes:
    def test_plotdata_with_invalid_scenario_exits_3(self, short_trajectory, unstable_file,
                                                     tmp_path, capsys):
        out = tmp_path / "p.dat"
        assert main(["plotdata", short_trajectory, "--out", str(out),
                     "--scenario", unstable_file]) == 3
        assert not out.exists()
        assert "unstable" in capsys.readouterr().err

    def test_leader_pull_with_invalid_scenario_exits_3(self, unstable_file, tmp_path, capsys):
        # the scenario is loaded, and found invalid, before the check rejects it
        assert main(["verify", "leader-pull", "--scenario", unstable_file,
                     "--out", str(tmp_path)]) == 3
        assert "unstable" in capsys.readouterr().err
        assert not (tmp_path / "leader-pull.txt").exists()

    def test_overflowing_number_in_file_exits_2(self, tmp_path, capsys):
        doc = scenario_to_dict(example_one("base"))
        doc["agents"][0]["position"][0] = "OVERFLOW"
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc).replace('"OVERFLOW"', "1e400"))
        assert main(["simulate", "--scenario", str(path),
                     "--out", str(tmp_path / "t.csv")]) == 2
        assert "agents[0].position[0]: non-finite number" in capsys.readouterr().err

    def test_overflowing_summed_weights_exit_2_naming_the_agent(self, tmp_path, capsys):
        # agent 2 is linked by 1e308 to each of agents 1 and 3: its degree overflows
        doc = scenario_to_dict(example_one("base")) | {
            "m": 1, "t_final": 1.0, "dt": 0.1,
            "agents": [{"id": i, "position": [float(i)]} for i in (1, 2, 3)],
            "leaders": [{"id": 1, "position": [0.0]}],
            "topologies": [{"id": 1, "edges": [[1, 2, 1e308], [2, 3, 1e308]],
                            "leader_links": [[1, 1, 1.0]]}],
            "schedule": [{"t": 0.0, "topology": 1}],
        }
        path = tmp_path / "heavy.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "row-stochastic", "--scenario", str(path),
                     "--out", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: agent 2: its summed weights overflow a double\n"
        assert not (tmp_path / "row-stochastic.txt").exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--out", "never.csv"],
        ["verify", "lemma2", "--out", "reports"],
        ["verify", "theorem1", "--out", "reports"],
    ], ids=["simulate", "verify-lemma2", "verify-theorem1"])
    def test_huge_finite_eigenvalue_is_an_unstable_step_exit_3(self, argv, tmp_path,
                                                               capsys, monkeypatch):
        # lambda_max = 1e308: the RK4 gate raised OverflowError cubing dt * lambda_max
        path = heavy_edge_file(tmp_path, 5e307)
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--scenario", path]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and "unstable" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["heavy_edge.json"]

    @pytest.mark.parametrize("check", ["lemma1", "lemma2"])
    def test_ill_conditioned_connected_topology_passes_the_lemmas(self, check, tmp_path):
        # edges 1e10 and 1: lambda2 of L is 1.5, lambda_min of H about 0.3,
        # against lambda_max = 2e10; both lemmas once failed, exit 1
        doc = json.loads(Path(heavy_edge_file(tmp_path, 1e10)).read_text()) | {
            "dt": 1e-10, "t_final": 1e-10,
            "agents": [{"id": i, "position": [float(i)]} for i in (1, 2, 3)]}
        doc["topologies"][0]["edges"].append([2, 3, 1.0])
        path = tmp_path / "weak_edge.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", check, "--scenario", str(path),
                     "--out", str(tmp_path / "reports")]) == 0

    @pytest.mark.parametrize("argv", [
        ["simulate", "--out", "never.csv"],
        ["verify", "lemma1", "--out", "reports"],
        ["verify", "lemma2", "--out", "reports"],
        ["verify", "theorem1", "--out", "reports"],
    ], ids=["simulate", "verify-lemma1", "verify-lemma2", "verify-theorem1"])
    def test_overflowing_eigenvalue_exits_2(self, argv, tmp_path, capsys, monkeypatch):
        # lambda_max = 2e308: lemma 1 and 2 once printed nan and failed, and
        # simulate failed later on non-finite points
        path = heavy_edge_file(tmp_path, 1e308)
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--scenario", path]) == 2
        assert capsys.readouterr() == ("", "error: an eigenvalue overflows a double\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["heavy_edge.json"]

    def test_overflowing_span_exits_3(self, tmp_path, capsys):
        # the horizon from t0 = -1e308 to t_final = 1e308 overflows to inf
        doc = scenario_to_dict(example_one("base")) | {"t0": -1e308, "t_final": 1e308}
        path = tmp_path / "span.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "theorem1", "--scenario", str(path),
                     "--out", str(tmp_path)]) == 3
        assert "horizon inf is not a finite number of steps" in capsys.readouterr().err
        assert not (tmp_path / "theorem1.txt").exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--out", "never.csv"],
        ["verify", "theorem2", "--out", "reports"],
    ], ids=["simulate", "verify-theorem2"])
    def test_horizon_too_long_to_store_exits_2(self, argv, endless_file, tmp_path,
                                               capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--scenario", endless_file]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: t_final=1e+300 at dt=0.01 is 1e+302 steps, "
                       "too many to store as a trajectory\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["endless.json"]

    def test_horizon_too_large_to_allocate_exits_2(self, tmp_path, capsys, monkeypatch):
        # 1e16 steps fit numpy's dimension limit, so the allocation itself fails;
        # the stand-in raises as numpy would and asks the system for nothing
        doc = scenario_to_dict(example_one("base")) | {"t_final": 1e14}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        empty = np.empty

        def refuse_large(shape, *args, **kwargs):
            if np.prod(shape, dtype=object) > 10**9:
                raise MemoryError(f"Unable to allocate an array with shape {shape}")
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", refuse_large)
        assert main(["simulate", "--scenario", str(path),
                     "--out", str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr().err == (
            "error: t_final=100000000000000.0 at dt=0.01 is 1e+16 steps, "
            "too many to store as a trajectory\n")
        assert not (tmp_path / "t.csv").exists()

    def test_horizon_too_long_to_store_still_certifies_theorem1(self, endless_file,
                                                                tmp_path):
        # theorem 1 reads only the terminal state, which costs O(segments)
        assert main(["verify", "theorem1", "--scenario", endless_file,
                     "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("argv", [
        ["verify", "theorem2"],
        ["simulate", "--out", "never.csv"],
    ], ids=["verify", "simulate"])
    def test_empty_scenario_exits_2(self, argv, tmp_path, capsys, monkeypatch):
        # verify once ran its default scenario, and simulate read the directory "."
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--scenario", ""]) == 2
        assert capsys.readouterr().err == (
            "error: --scenario is empty: give a scenario file path or builtin:<name>\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["simulate", "--scenario", "builtin:example1-base", "--t-final", "1.0"],
        ["paper", "--example", "1"],
        ["verify", "lemma1"],
        ["plotdata", None],
    ], ids=["simulate", "paper", "verify", "plotdata"])
    def test_write_failure_exits_2(self, argv, blocked, short_trajectory, capsys):
        argv = [short_trajectory if a is None else a for a in argv]
        capsys.readouterr()
        assert main(argv + ["--out", blocked]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write: ")
        assert err.count("\n") == 1
        # every command names the blocked directory the same way
        assert "[Errno 20] Not a directory" in err

    def test_module_entry_point_reports_one_error_line(self, tmp_path):
        src = str(Path(containment.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "containment", "verify", "theorem2",
             "--scenario", "builtin:necessity", "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == ("error: topology 1: leaderless component {4, 5}: "
                               "no leader link reaches these agents\n")
