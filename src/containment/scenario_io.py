"""File formats: JSON scenario documents, CSV trajectories, gnuplot plot data.

Scenario documents are strict: unknown keys are rejected and every error
message carries the key path (or line/column for malformed JSON) so the CLI
can point at the offending spot. Trajectory tables use 9 significant digits,
enough to verify 1e-6-level properties downstream, and are written
deterministically so repeated runs are byte-identical. Each cell of a
trajectory is formatted once, in blocks of rows, and the CSV and plot-data
writers share the result, which lives as long as the trajectory does.
"""

from __future__ import annotations

import json
import weakref
from pathlib import Path

import numpy as np

from .dynamics import Scenario, SwitchingSchedule, Trajectory
from .geometry import LeaderSet
from .graph import AgentGraph, LeaderLinks, Topology

_TOP_KEYS = ("m", "t0", "t_final", "dt", "agents", "leaders", "topologies", "schedule")
_ROWS_PER_WRITE = 1024
# Trajectory -> {column: formatted blocks}; see _cells
_FORMATTED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class FileFormatError(ValueError):
    """A scenario or trajectory document failed to parse."""


def _err(where: str, msg: str):
    raise FileFormatError(f"{where}: {msg}")


def _as_int(v, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        _err(where, f"expected an integer, got {v!r}")
    return v


def _as_float(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _err(where, f"expected a number, got {v!r}")
    return float(v)


def _as_list(v, where: str) -> list:
    if not isinstance(v, list):
        _err(where, f"expected a list, got {type(v).__name__}")
    return v

def _as_dict(v, where: str) -> dict:
    if not isinstance(v, dict):
        _err(where, f"expected an object, got {type(v).__name__}")
    return v


def _check_keys(obj: dict, where: str, required, optional=()):
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        _err(where, f"unknown keys {unknown}")
    missing = [key for key in required if key not in obj]
    if missing:
        _err(where, f"missing keys {missing}")


def _parse_points(items, m: int, where: str, kind: str) -> np.ndarray:
    items = _as_list(items, where)
    if not items:
        _err(where, f"needs at least one {kind}")
    rows: dict[int, list[float]] = {}
    for idx, entry in enumerate(items):
        spot = f"{where}[{idx}]"
        entry = _as_dict(entry, spot)
        _check_keys(entry, spot, ("id", "position"))
        ident = _as_int(entry["id"], f"{spot}.id")
        pos = _as_list(entry["position"], f"{spot}.position")
        if len(pos) != m:
            _err(f"{spot}.position", f"expected {m} coordinates, got {len(pos)}")
        if ident in rows:
            _err(f"{spot}.id", f"duplicate {kind} id {ident}")
        rows[ident] = [_as_float(c, f"{spot}.position[{j}]") for j, c in enumerate(pos)]
    count = len(rows)
    if sorted(rows) != list(range(1, count + 1)):
        _err(where, f"{kind} ids must be exactly 1..{count}")
    return np.array([rows[i] for i in range(1, count + 1)])


def _parse_weighted(items, where: str, arity_names: tuple[str, str]):
    out = []
    for idx, entry in enumerate(_as_list(items, where)):
        spot = f"{where}[{idx}]"
        entry = _as_list(entry, spot)
        if len(entry) not in (2, 3):
            _err(spot, f"expected [{arity_names[0]}, {arity_names[1]}] or "
                       f"[{arity_names[0]}, {arity_names[1]}, weight]")
        parsed = (_as_int(entry[0], f"{spot}[0]"), _as_int(entry[1], f"{spot}[1]"))
        if len(entry) == 3:
            parsed += (_as_float(entry[2], f"{spot}[2]"),)
        out.append(parsed)
    return tuple(out)


def scenario_from_dict(doc: dict, source: str = "<scenario>", **overrides) -> Scenario:
    """Build a Scenario; keyword overrides (``dt=``, ``t_final=``) replace the
    document's fields before the Scenario validates them."""
    doc = _as_dict(doc, source)
    _check_keys(doc, source, _TOP_KEYS, optional=("notes",))
    m = _as_int(doc["m"], f"{source}.m")
    if m < 1:
        _err(f"{source}.m", "dimension must be positive")
    x_init = _parse_points(doc["agents"], m, f"{source}.agents", "agent")
    leader_pos = _parse_points(doc["leaders"], m, f"{source}.leaders", "leader")
    n, k = x_init.shape[0], leader_pos.shape[0]
    topologies = []
    seen_ids = set()
    for idx, entry in enumerate(_as_list(doc["topologies"], f"{source}.topologies")):
        spot = f"{source}.topologies[{idx}]"
        entry = _as_dict(entry, spot)
        _check_keys(entry, spot, ("id",), optional=("edges", "leader_links"))
        pid = _as_int(entry["id"], f"{spot}.id")
        if pid in seen_ids:
            _err(f"{spot}.id", f"duplicate topology id {pid}")
        seen_ids.add(pid)
        edges = _parse_weighted(entry.get("edges", []), f"{spot}.edges", ("i", "j"))
        links = _parse_weighted(entry.get("leader_links", []), f"{spot}.leader_links",
                                ("agent", "leader"))
        try:
            topo = Topology(AgentGraph(n, edges), LeaderLinks(n, k, links))
        except ValueError as e:
            _err(spot, str(e))
        topologies.append((pid, topo))
    entries = []
    for idx, entry in enumerate(_as_list(doc["schedule"], f"{source}.schedule")):
        spot = f"{source}.schedule[{idx}]"
        entry = _as_dict(entry, spot)
        _check_keys(entry, spot, ("t", "topology"))
        entries.append((_as_float(entry["t"], f"{spot}.t"),
                        _as_int(entry["topology"], f"{spot}.topology")))
    if not entries:
        _err(f"{source}.schedule", "needs at least one entry")
    notes = doc.get("notes", "")
    if not isinstance(notes, str):
        _err(f"{source}.notes", "expected a string")
    fields = dict(
        m=m,
        x_init=x_init,
        leaders=LeaderSet(leader_pos),
        topologies=tuple(topologies),
        schedule=SwitchingSchedule(tuple(entries)),
        dt=_as_float(doc["dt"], f"{source}.dt"),
        t_final=_as_float(doc["t_final"], f"{source}.t_final"),
        t0=_as_float(doc["t0"], f"{source}.t0"),
        notes=notes,
    )
    # structural validation happens in the Scenario constructor and raises
    # ScenarioError, which callers treat as "invalid scenario", not "bad file"
    return Scenario(**(fields | overrides))


def parse_scenario(text: str, source: str = "<scenario>", **overrides) -> Scenario:
    def reject_constant(name):
        _err(source, f"non-finite number {name} is not allowed")

    try:
        doc = json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as e:
        raise FileFormatError(f"{source}: line {e.lineno} column {e.colno}: {e.msg}") from None
    return scenario_from_dict(doc, source, **overrides)


def load_scenario(path, **overrides) -> Scenario:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as e:
        raise FileFormatError(f"{p}: {e.strerror or e}") from None
    return parse_scenario(text, str(p), **overrides)


def scenario_to_dict(s: Scenario) -> dict:
    doc = {
        "m": s.m,
        "t0": s.t0,
        "t_final": s.t_final,
        "dt": s.dt,
        "agents": [{"id": i, "position": pos} for i, pos in enumerate(s.x_init.tolist(), 1)],
        "leaders": [
            {"id": q, "position": pos} for q, pos in enumerate(s.leaders.positions.tolist(), 1)
        ],
        "topologies": [
            {
                "id": pid,
                "edges": [[i, j, w] for i, j, w in topo.graph.edges],
                "leader_links": [[a, q, w] for a, q, w in topo.leaders.links],
            }
            for pid, topo in s.topologies
        ],
        "schedule": [{"t": t, "topology": pid} for t, pid in s.schedule.entries],
    }
    if s.notes:
        doc["notes"] = s.notes
    return doc


def _out_path(path) -> Path:
    """``path`` as a Path, with its missing parent directories made. A regular
    file in the way then fails the write as ENOTDIR, not as EEXIST."""
    p = Path(path)
    if not p.parent.exists():
        p.parent.mkdir(parents=True, exist_ok=True)
    return p


def write_scenario(s: Scenario, path) -> Path:
    p = _out_path(path)
    p.write_text(json.dumps(scenario_to_dict(s), indent=2) + "\n")
    return p


def _format_cells(values, spec: str) -> str:
    """The numbers of a 1-D array as one comma-joined string, formatted by one
    ``%`` for the whole array; ``'%.9g' % v`` and ``f"{v:.9g}"`` give the same
    bytes."""
    return ",".join([spec] * len(values)) % tuple(values.tolist())


def _cells(traj: Trajectory, column) -> list[str]:
    """Trajectory column ``'times'``, ``'d_xi'``, ``'topologies'`` or state
    column ``column``, one ``_format_cells`` string per block of
    ``_ROWS_PER_WRITE`` rows. Memoized on the trajectory, which is immutable,
    so both writers format it once."""
    memo = _FORMATTED.setdefault(traj, {})
    if column not in memo:
        values = getattr(traj, column) if isinstance(column, str) else traj.states[:, column]
        spec = "%d" if column == "topologies" else "%.9g"
        memo[column] = [_format_cells(values[j : j + _ROWS_PER_WRITE], spec)
                        for j in range(0, len(values), _ROWS_PER_WRITE)]
    return memo[column]


def _write_rows(f, columns, sep: str) -> None:
    """Write the rows of columns given as lists of comma-joined blocks, cells
    joined by ``sep``, one block of rows at a time."""
    for block in zip(*columns):
        f.write("\n".join(map(sep.join, zip(*(b.split(",") for b in block)))) + "\n")


def trajectory_header(n: int, m: int) -> list[str]:
    cols = ["t"]
    for i in range(1, n + 1):
        for d in range(1, m + 1):
            cols.append(f"a{i}_{d}")
    cols.extend(["d_xi", "topology"])
    return cols


def write_trajectory(traj: Trajectory, path) -> Path:
    """CSV table: t, per-agent coordinates, d_xi, active topology id."""
    p = _out_path(path)
    columns = ["times", *range(traj.n * traj.m), "d_xi", "topologies"]
    with p.open("w") as f:
        f.write(",".join(trajectory_header(traj.n, traj.m)) + "\n")
        _write_rows(f, [_cells(traj, c) for c in columns], ",")
    return p


def _reads(text: str) -> bool:
    """True iff ``np.loadtxt`` reads text as comma-separated numbers."""
    if not text:
        return False  # loadtxt warns on empty input instead of raising
    try:
        np.loadtxt([text], delimiter=",", comments=None)
    except ValueError:
        return False
    return True


def _first_bad_cell(rows) -> str | None:
    """Locate, by file line, the first cell of (line number, text) rows that
    is not a number. Runs only after the one-call parse has failed."""
    for no, line in rows:
        if not _reads(line):
            for cell in line.split(","):
                if not _reads(cell):
                    return f"line {no}: cell {cell!r} is not a number"
    return None


def read_trajectory(path) -> Trajectory:
    """Parse a table written by ``write_trajectory``. Blank lines are skipped;
    a row with the wrong number of cells, or a cell that is not a number, is
    reported by its file line."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as e:
        raise FileFormatError(f"{p}: {e.strerror or e}") from None
    numbered = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if len(numbered) < 2:
        raise FileFormatError(f"{p}: needs a header and at least one sample row")
    (_, head), *rows = numbered
    header = [c.strip() for c in head.split(",")]
    try:  # n, m from the last state column, a{n}_{m}
        n, m = map(int, header[-3].removeprefix("a").split("_"))
        # the size test comes first so a bogus n, m cannot build a huge header
        known = n * m == len(header) - 3 and header == trajectory_header(n, m)
    except (IndexError, ValueError):
        known = False
    if not known:
        raise FileFormatError(f"{p}: unexpected header {head!r}")
    for no, line in rows:
        if line.count(",") != len(header) - 1:
            raise FileFormatError(f"{p}: line {no}: expected {len(header)} cells")
    try:
        # comments=None: a '#' inside a cell is a bad number, not a comment
        table = np.loadtxt([ln for _, ln in rows], delimiter=",", comments=None, ndmin=2)
    except ValueError as e:
        raise FileFormatError(f"{p}: {_first_bad_cell(rows) or e}") from None
    t, topo = table[:, 0], table[:, -1]
    if not (np.isfinite(t).all() and (np.diff(t) > 0).all()):
        raise FileFormatError(f"{p}: sample times must be finite and strictly increasing")
    # NaN and inf fail the range test, so the int cast below never warns
    if not ((np.abs(topo) < 2.0**63) & (topo == np.trunc(topo))).all():
        raise FileFormatError(f"{p}: topology ids must be integers")
    return Trajectory(
        times=t,
        states=table[:, 1:-2],
        topologies=topo.astype(int),
        d_xi=table[:, -2],
        n=n,
        m=m,
    )


def write_plot_data(traj: Trajectory, path, leaders: LeaderSet | None = None) -> Path:
    """Gnuplot-ready blocks: per-agent time series, leader markers, and (for
    planar data) one overhead path block per agent. Blocks are separated by
    two blank lines so they are addressable with gnuplot's ``index``."""
    if leaders is not None and leaders.m != traj.m:
        raise ValueError("leader dimension does not match the trajectory")
    p = _out_path(path)
    agents = [[_cells(traj, c) for c in range(i * traj.m, (i + 1) * traj.m)]
              for i in range(traj.n)]
    blocks = [(f"# agent {i} time series: t coordinates", [_cells(traj, "times"), *cols])
              for i, cols in enumerate(agents, 1)]
    if leaders is not None:
        ids = ",".join(map(str, range(1, leaders.k + 1)))
        coords = [[_format_cells(c, "%.9g")] for c in leaders.positions.T]
        blocks.append(("# leaders: id coordinates", [[ids], *coords]))
    if traj.m == 2:
        blocks += [(f"# agent {i} path: x y", cols) for i, cols in enumerate(agents, 1)]
    with p.open("w") as f:
        for b, (title, cols) in enumerate(blocks):
            f.write(("\n\n" if b else "") + title + "\n")
            _write_rows(f, cols, " ")
    return p
