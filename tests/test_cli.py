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

    def test_row_stochastic_rejects_disconnected(self, tmp_path):
        assert main(["verify", "row-stochastic", "--scenario", "builtin:necessity",
                     "--out", str(tmp_path)]) == 2

    def test_leader_pull_rejects_scenario(self, tmp_path):
        assert main(["verify", "leader-pull", "--scenario", "builtin:example1-base",
                     "--out", str(tmp_path)]) == 2

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

    def test_negative_random_exits_2(self, tmp_path):
        assert main(["verify", "lemma1", "--random", "0", "--out", str(tmp_path)]) == 2

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
        assert done.stderr == "error: topology 1 has a leaderless component\n"
