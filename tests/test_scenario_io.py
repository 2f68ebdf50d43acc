import gc
import json
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import plot_data_oracle, trajectory_csv_oracle

from containment import scenario_io
from containment.builtin import BUILTIN_SCENARIOS, example_one, example_two, switched_demo
from containment.dynamics import ScenarioError, Trajectory, simulate
from containment.geometry import LeaderSet
from containment.scenario_io import (
    FileFormatError,
    load_scenario,
    parse_scenario,
    read_trajectory,
    scenario_to_dict,
    write_plot_data,
    write_scenario,
    write_trajectory,
)


def assert_scenarios_equal(a, b):
    assert a.m == b.m and a.n == b.n
    assert (a.t0, a.t_final, a.dt) == (b.t0, b.t_final, b.dt)
    np.testing.assert_array_equal(a.x_init, b.x_init)
    np.testing.assert_array_equal(a.leaders.positions, b.leaders.positions)
    assert a.topologies == b.topologies
    assert a.schedule.entries == b.schedule.entries
    assert a.notes == b.notes


class TestScenarioRoundTrip:
    @pytest.mark.parametrize("factory", [example_one, example_two, switched_demo])
    def test_field_exact(self, tmp_path, factory):
        s = factory()
        path = write_scenario(s, tmp_path / "scenario.json")
        assert_scenarios_equal(load_scenario(path), s)

    def test_weights_survive_exactly(self, tmp_path):
        s = example_one("base")
        doc = scenario_to_dict(s)
        doc["topologies"][0]["edges"][0][2] = 0.1 + 0.2  # 0.30000000000000004
        loaded = parse_scenario(json.dumps(doc))
        assert loaded.topology(1).graph.edges[0][2] == 0.1 + 0.2


class TestScenarioParsing:
    def test_unknown_top_level_key(self):
        doc = scenario_to_dict(example_one("base"))
        doc["bogus"] = 1
        with pytest.raises(FileFormatError, match="bogus"):
            parse_scenario(json.dumps(doc))

    def test_unknown_nested_key_reports_path(self):
        doc = scenario_to_dict(example_one("base"))
        doc["agents"][2]["extra"] = 1
        with pytest.raises(FileFormatError, match=r"agents\[2\]"):
            parse_scenario(json.dumps(doc))

    def test_malformed_json_reports_position(self):
        with pytest.raises(FileFormatError, match="line 2 column"):
            parse_scenario('{\n "m": }')

    def test_agent_ids_must_cover_range(self):
        doc = scenario_to_dict(example_one("base"))
        doc["agents"][0]["id"] = 9
        with pytest.raises(FileFormatError, match="ids must be exactly"):
            parse_scenario(json.dumps(doc))

    def test_duplicate_topology_id(self):
        doc = scenario_to_dict(switched_demo())
        doc["topologies"][1]["id"] = doc["topologies"][0]["id"]
        with pytest.raises(FileFormatError, match="duplicate topology id"):
            parse_scenario(json.dumps(doc))

    def test_position_length_mismatch(self):
        doc = scenario_to_dict(example_one("base"))
        doc["leaders"][0]["position"] = [1.0, 2.0]
        with pytest.raises(FileFormatError, match=r"leaders\[0\].position"):
            parse_scenario(json.dumps(doc))

    def test_bad_edge_shape(self):
        doc = scenario_to_dict(example_one("base"))
        doc["topologies"][0]["edges"][0] = [1]
        with pytest.raises(FileFormatError, match=r"edges\[0\]"):
            parse_scenario(json.dumps(doc))

    def test_self_loop_reported_with_location(self):
        doc = scenario_to_dict(example_one("base"))
        doc["topologies"][0]["edges"][0] = [2, 2, 1.0]
        with pytest.raises(FileFormatError, match=r"topologies\[0\]"):
            parse_scenario(json.dumps(doc))

    def test_notes_must_be_string(self):
        doc = scenario_to_dict(example_one("base"))
        doc["notes"] = 5
        with pytest.raises(FileFormatError, match="notes"):
            parse_scenario(json.dumps(doc))

    def test_non_finite_numbers_rejected(self):
        doc = scenario_to_dict(example_one("base"))
        text = json.dumps(doc).replace("50.0", "Infinity", 1)
        with pytest.raises(FileFormatError, match="Infinity"):
            parse_scenario(text)

    @pytest.mark.parametrize("literal", ["1e400", "-1e400", "1" + "0" * 400],
                             ids=["1e400", "-1e400", "400-digit-int"])
    @pytest.mark.parametrize("path", [
        ("t0",),
        ("dt",),
        ("t_final",),
        ("schedule", 0, "t"),
        ("agents", 1, "position", 0),
        ("leaders", 0, "position", 0),
        ("topologies", 0, "edges", 0, 2),
        ("topologies", 0, "leader_links", 0, 2),
    ], ids=lambda path: ".".join(map(str, path)))
    def test_overflowing_number_names_its_key(self, path, literal):
        # JSON reads 1e400 as inf and a 400-digit integer as an int that no
        # float holds; both fail like the Infinity literal, at their key
        doc = scenario_to_dict(example_one("base"))
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        node[last] = "OVERFLOW"
        text = json.dumps(doc).replace('"OVERFLOW"', literal)
        where = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)
        with pytest.raises(FileFormatError,
                           match=re.escape(f"<scenario>{where}: non-finite number")):
            parse_scenario(text)

    @pytest.mark.parametrize("path, value, message", [
        (("m",), 1.5, ".m: expected an integer, got 1.5"),
        (("m",), 0, ".m: dimension must be positive"),
        (("dt",), "0.01", ".dt: expected a number, got '0.01'"),
        (("agents",), {}, ".agents: expected a list, got dict"),
        (("agents", 0), [1], ".agents[0]: expected an object, got list"),
        (("dt",), None, ": missing keys ['dt']"),
        (("agents",), [], ".agents: needs at least one agent"),
        (("leaders",), [], ".leaders: needs at least one leader"),
        (("agents", 1, "id"), 1, ".agents[1].id: duplicate agent id 1"),
        (("leaders", 1, "id"), 1, ".leaders[1].id: duplicate leader id 1"),
        (("schedule",), [], ".schedule: needs at least one entry"),
    ], ids=["m-float", "m-zero", "dt-string", "agents-object", "agent-list",
            "missing-dt", "no-agents", "no-leaders", "duplicate-agent",
            "duplicate-leader", "empty-schedule"])
    def test_invalid_value_names_its_key(self, path, value, message):
        # a value of None deletes the key
        doc = scenario_to_dict(example_one("base"))
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        if value is None:
            del node[last]
        else:
            node[last] = value
        with pytest.raises(FileFormatError, match=f"^{re.escape('<scenario>' + message)}$"):
            parse_scenario(json.dumps(doc))

    def test_structural_error_is_scenario_error(self):
        doc = scenario_to_dict(example_one("base"))
        doc["dt"] = 0.3  # horizon 50 is not a multiple
        with pytest.raises(ScenarioError):
            parse_scenario(json.dumps(doc))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileFormatError):
            load_scenario(tmp_path / "absent.json")

    def test_default_weights_fill_in(self):
        doc = scenario_to_dict(example_one("base"))
        doc["topologies"][0]["edges"] = [[1, 2], [2, 3], [3, 4], [4, 5]]
        s = parse_scenario(json.dumps(doc))
        assert all(w == 1.0 for _, _, w in s.topology(1).graph.edges)


@pytest.fixture(scope="module")
def short_trajectory():
    import dataclasses

    return simulate(dataclasses.replace(example_one("base"), t_final=0.5))


class TestTrajectoryFiles:
    def test_header_and_shape(self, tmp_path, short_trajectory):
        path = write_trajectory(short_trajectory, tmp_path / "t.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "t,a1_1,a2_1,a3_1,a4_1,a5_1,d_xi,topology"
        assert len(lines) == 1 + 51
        assert all(len(line.split(",")) == 8 for line in lines)

    def test_nine_significant_digits(self, tmp_path, short_trajectory):
        path = write_trajectory(short_trajectory, tmp_path / "t.csv")
        first_state_cell = path.read_text().splitlines()[2].split(",")[1]
        assert len(first_state_cell.replace(".", "").replace("-", "").lstrip("0")) <= 9

    def test_round_trip(self, tmp_path, short_trajectory):
        path = write_trajectory(short_trajectory, tmp_path / "t.csv")
        back = read_trajectory(path)
        assert back.n == short_trajectory.n and back.m == short_trajectory.m
        np.testing.assert_allclose(back.states, short_trajectory.states, rtol=1e-8)
        np.testing.assert_allclose(back.d_xi, short_trajectory.d_xi, rtol=1e-8, atol=1e-12)
        np.testing.assert_array_equal(back.topologies, short_trajectory.topologies)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(FileFormatError):
            read_trajectory(path)

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,a1_1,d_xi,topology\n0,1,0\n")
        with pytest.raises(FileFormatError, match="expected 4 cells"):
            read_trajectory(path)

    def test_rejects_rows_uniformly_one_cell_short(self, tmp_path):
        # every row parses, as a table one column narrower than the header
        path = tmp_path / "bad.csv"
        path.write_text("t,a1_1,d_xi,topology\n\n0,1,0\n1,1,0\n2,1,0\n")
        with pytest.raises(FileFormatError, match=r"bad\.csv: line 3: expected 4 cells$"):
            read_trajectory(path)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,a1_1,d_xi,topology\n0,1,0,1\n")
        with pytest.raises(FileFormatError, match="header"):
            read_trajectory(path)

    def test_rejects_unordered_times(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,a1_1,d_xi,topology\n0,1,0,1\n0,1,0,1\n")
        with pytest.raises(FileFormatError, match="increasing"):
            read_trajectory(path)

    def test_rejects_nan_time(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,a1_1,d_xi,topology\n0,1,0,1\nnan,1,0,1\n1,1,0,1\n")
        with pytest.raises(FileFormatError, match="increasing"):
            read_trajectory(path)

    def test_error_names_file_line_after_blank_lines(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,a1_1,d_xi,topology\n\n0,1,0\n")
        with pytest.raises(FileFormatError, match="line 3: expected 4 cells"):
            read_trajectory(path)

    def test_bad_number_names_file_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,a1_1,d_xi,topology\n\n0,x,0,1\n")
        with pytest.raises(FileFormatError, match="line 3: cell 'x' is not a number"):
            read_trajectory(path)

    @pytest.mark.parametrize("row, match", [
        ("0,1,0,1.5", "topology"),
        ("0,1,0,nan", "topology"),
        ("0,1#,0,1", "'1#'"),
        ("0,,0,1", "line 2: cell '' is not a number"),
    ])
    def test_rejects_bad_cells(self, tmp_path, row, match):
        path = tmp_path / "bad.csv"
        path.write_text(f"t,a1_1,d_xi,topology\n{row}\n")
        with pytest.raises(FileFormatError, match=match):
            read_trajectory(path)

    def test_reads_written_digits_exactly(self, tmp_path):
        traj = simulate(example_two())
        back = read_trajectory(write_trajectory(traj, tmp_path / "t.csv"))
        for name in ("times", "states", "d_xi"):
            written = np.vectorize(lambda v: float(f"{v:.9g}"))(getattr(traj, name))
            assert getattr(back, name).tobytes() == written.tobytes(), name
        np.testing.assert_array_equal(back.topologies, traj.topologies)


class TestPlotData:
    def test_one_dimensional_blocks(self, tmp_path):
        import dataclasses

        traj = simulate(dataclasses.replace(example_one("base"), t_final=0.2))
        path = write_plot_data(traj, tmp_path / "p.dat",
                               leaders=LeaderSet(((1.0,), (2.0,))))
        text = path.read_text()
        blocks = text.split("\n\n\n")
        assert len(blocks) == 6  # five agent series plus one leader block
        leader_block = blocks[-1].splitlines()
        assert leader_block[0].startswith("# leaders")
        assert len(leader_block) == 3  # header plus two markers

    def test_planar_blocks_include_paths(self, tmp_path):
        import dataclasses

        traj = simulate(dataclasses.replace(example_two(), t_final=0.2))
        s = example_two()
        path = write_plot_data(traj, tmp_path / "p.dat", leaders=s.leaders)
        blocks = path.read_text().split("\n\n\n")
        assert len(blocks) == 11  # 5 series + leaders + 5 paths
        assert sum(b.startswith("# agent") and "path" in b.splitlines()[0] for b in blocks) == 5
        leader_rows = [b for b in blocks if b.startswith("# leaders")][0].splitlines()[1:]
        assert len(leader_rows) == 3

    def test_without_leaders(self, tmp_path):
        import dataclasses

        traj = simulate(dataclasses.replace(example_one("base"), t_final=0.2))
        path = write_plot_data(traj, tmp_path / "p.dat")
        assert len(path.read_text().split("\n\n\n")) == 5

    def test_dimension_mismatch(self, tmp_path):
        import dataclasses

        traj = simulate(dataclasses.replace(example_one("base"), t_final=0.2))
        with pytest.raises(ValueError):
            write_plot_data(traj, tmp_path / "p.dat", leaders=example_two().leaders)


@pytest.fixture
def tiny_planar_trajectory():
    from containment.dynamics import Trajectory

    return Trajectory(
        times=np.array([0.0, 0.5, 1.0]),
        states=np.array([
            [-1.5, 1e-10, 3.0, 1234567890.123],
            [0.1234567891234, -2.0, 7.0, -0.000123456789012],
            [2.5, -1e-10, 12.0, 98765.4321],
        ]),
        topologies=np.array([1, 1, 2]),
        d_xi=np.array([0.125, 1e-10, 0.0]),
        n=2,
        m=2,
    )


_TINY_SERIES = (
    "# agent 1 time series: t coordinates\n"
    "0 -1.5 1e-10\n0.5 0.123456789 -2\n1 2.5 -1e-10\n\n\n"
    "# agent 2 time series: t coordinates\n"
    "0 3 1.23456789e+09\n0.5 7 -0.000123456789\n1 12 98765.4321\n\n\n"
)
_TINY_PATHS = (
    "# agent 1 path: x y\n"
    "-1.5 1e-10\n0.123456789 -2\n2.5 -1e-10\n\n\n"
    "# agent 2 path: x y\n"
    "3 1.23456789e+09\n7 -0.000123456789\n12 98765.4321\n"
)


class TestWriterBytes:
    def test_csv_text(self, tmp_path, tiny_planar_trajectory):
        path = write_trajectory(tiny_planar_trajectory, tmp_path / "t.csv")
        assert path.read_text() == (
            "t,a1_1,a1_2,a2_1,a2_2,d_xi,topology\n"
            "0,-1.5,1e-10,3,1.23456789e+09,0.125,1\n"
            "0.5,0.123456789,-2,7,-0.000123456789,1e-10,1\n"
            "1,2.5,-1e-10,12,98765.4321,0,2\n"
        )

    def test_plot_data_without_leaders(self, tmp_path, tiny_planar_trajectory):
        path = write_plot_data(tiny_planar_trajectory, tmp_path / "p.dat")
        assert path.read_text() == _TINY_SERIES + _TINY_PATHS

    def test_plot_data_with_leaders(self, tmp_path, tiny_planar_trajectory):
        leaders = LeaderSet([[3.14159265358979, -2.0], [0.0, 1e-10]])
        path = write_plot_data(tiny_planar_trajectory, tmp_path / "p.dat", leaders=leaders)
        assert path.read_text() == (
            _TINY_SERIES
            + "# leaders: id coordinates\n1 3.14159265 -2\n2 0 1e-10\n\n\n"
            + _TINY_PATHS
        )


_SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 1.7976931348623157e308]


def synthetic_trajectory(rows, n=2, m=2, seed=0):
    """Cells spanning 24 decades, with signed zeros, infinities, NaN and
    subnormals among the states."""
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((rows, n * m)) * 10.0 ** rng.uniform(-12, 12, (rows, n * m))
    flat = states.reshape(-1)
    flat[: len(_SPECIAL)] = _SPECIAL[: flat.size]
    return Trajectory(
        times=0.01 * np.arange(rows),
        states=states,
        topologies=rng.integers(1, 4, rows),
        d_xi=np.abs(rng.standard_normal(rows)) * 1e-3,
        n=n,
        m=m,
    )


def synthetic_leaders(m, seed=0):
    return LeaderSet(np.random.default_rng(seed).uniform(-10.0, 10.0, (m + 1, m)))


def assert_same_text(path, expected):
    """Compare by the line count and the first differing line, which keeps a
    failure report short where a full diff of megabytes would not be."""
    got, want = path.read_text().splitlines(True), expected.splitlines(True)
    first = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
                 min(len(got), len(want)))
    assert (len(got), got[first : first + 1]) == (len(want), want[first : first + 1])


def assert_writers_match_oracles(tmp_path, traj, leaders):
    assert_same_text(write_trajectory(traj, tmp_path / "t.csv"), trajectory_csv_oracle(traj))
    assert_same_text(write_plot_data(traj, tmp_path / "p.dat"), plot_data_oracle(traj))
    assert_same_text(write_plot_data(traj, tmp_path / "pl.dat", leaders=leaders),
                     plot_data_oracle(traj, leaders))


class TestWritersMatchOracles:
    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_builtin(self, tmp_path, name):
        s = BUILTIN_SCENARIOS[name]()
        assert_writers_match_oracles(tmp_path, simulate(s), s.leaders)

    @pytest.mark.parametrize("rows, n, m", [
        (1, 2, 2),
        (1024, 2, 2),  # one full block
        (1025, 2, 2),  # one row in the last block
        (2049, 3, 1),
        (300, 3, 3),
    ])
    def test_synthetic(self, tmp_path, rows, n, m):
        assert_writers_match_oracles(tmp_path, synthetic_trajectory(rows, n, m),
                                     synthetic_leaders(m))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda m: st.lists(
        st.lists(st.floats(allow_nan=True, allow_infinity=True, width=64)
                 | st.sampled_from(_SPECIAL), min_size=m, max_size=m),
        min_size=1, max_size=40)))
    def test_row_format_is_f_string(self, rows):
        expected = "\n".join(" ".join(f"{v:.9g}" for v in row) for row in rows)
        line = " ".join(["%.9g"] * len(rows[0]))
        assert scenario_io._format_rows(np.array(rows), line) == expected


def count_group_formats(monkeypatch) -> list[tuple[int, str]]:
    """Record (rows, line) of every ``_format_rows`` call from now on."""
    calls = []
    real = scenario_io._format_rows

    def counting(values, line):
        calls.append((len(values), line))
        return real(values, line)

    monkeypatch.setattr(scenario_io, "_format_rows", counting)
    return calls


class TestFormattedOnce:
    def test_each_group_block_formatted_once(self, tmp_path, monkeypatch):
        traj, leaders = synthetic_trajectory(2049), synthetic_leaders(2)
        calls = count_group_formats(monkeypatch)
        write_trajectory(traj, tmp_path / "t.csv")
        # 3 blocks each of t, 2 agents, d_xi and topology
        assert sorted(calls) == sorted(
            (rows, line) for rows in (1024, 1024, 1)
            for line in ("%.9g", "%.9g %.9g", "%.9g %.9g", "%.9g", "%d"))
        calls.clear()
        write_plot_data(traj, tmp_path / "p.dat")
        assert calls == []
        write_plot_data(traj, tmp_path / "p.dat", leaders=leaders)
        assert calls == [(3, "%d %.9g %.9g")]  # the leader block, which is not memoized

    def test_plot_data_first_leaves_csv_only_its_own_groups(self, tmp_path, monkeypatch):
        traj = synthetic_trajectory(1025)
        calls = count_group_formats(monkeypatch)
        write_plot_data(traj, tmp_path / "p.dat")
        assert len(calls) == 2 * 3  # t and 2 agents; d_xi is not plotted
        calls.clear()
        write_trajectory(traj, tmp_path / "t.csv")
        # 2 blocks each of d_xi and topology
        assert sorted(calls) == [(1, "%.9g"), (1, "%d"), (1024, "%.9g"), (1024, "%d")]

    def test_memo_does_not_pin_the_trajectory(self, tmp_path):
        traj = synthetic_trajectory(50)
        write_trajectory(traj, tmp_path / "t.csv")
        write_plot_data(traj, tmp_path / "p.dat")
        ref = weakref.ref(traj)
        del traj
        gc.collect()
        assert ref() is None
