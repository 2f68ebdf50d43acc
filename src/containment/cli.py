"""Command-line interface.

Subcommands:

* ``simulate`` - integrate a scenario file, write the trajectory CSV, print
  the final containment distance and per-agent positions.
* ``paper``    - run a bundled example variant; writes scenario, trajectory,
  and plot-data files and prints the qualitative claim the variant exercises.
* ``verify``   - run one named check (lemma1, lemma2, theorem1, theorem2,
  row-stochastic, leader-pull) on a scenario or as a seeded random campaign;
  writes one report per check as .txt and .json.
* ``plotdata`` - convert a trajectory CSV into gnuplot-ready blocks.

Exit codes: 0 success/verified, 1 a verification check failed, 2 usage or
parse error, 3 structurally invalid scenario.

Anywhere a ``--scenario`` is accepted, ``builtin:<name>`` refers to a bundled
scenario (for example ``builtin:example1-base`` or ``builtin:necessity``).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    CHECK_NAMES,
    NotAllConnectedError,
    VerificationReport,
    check_lemma1,
    check_lemma2,
    check_row_stochastic,
    check_theorem1,
    check_theorem2,
    leader_pull_monotonicity,
    run_random_campaign,
    write_report,
)
from .builtin import EXAMPLE_ONE_VARIANTS, builtin_scenario, example_one_topology
from .dynamics import Scenario, ScenarioError, equilibrium, simulate
from .geometry import LeaderSet, collinearity_residual, project_points
from .graph import LeaderLinks
from .linalg import NotPositiveDefiniteError
from .scenario_io import (
    FileFormatError,
    load_scenario,
    read_trajectory,
    write_plot_data,
    write_scenario,
    write_trajectory,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INVALID_SCENARIO = 3


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _load_scenario_arg(value: str, **overrides) -> Scenario:
    if not value.startswith("builtin:"):
        return load_scenario(value, **overrides)
    s = builtin_scenario(value[len("builtin:"):])
    return dataclasses.replace(s, **overrides) if overrides else s


def cmd_simulate(args) -> int:
    overrides = {key: getattr(args, key) for key in ("dt", "t_final")
                 if getattr(args, key) is not None}
    try:
        s = _load_scenario_arg(args.scenario, **overrides)
    except FileFormatError as e:
        return _fail(str(e), EXIT_USAGE)
    except ScenarioError as e:
        return _fail(str(e), EXIT_INVALID_SCENARIO)
    except ValueError as e:
        return _fail(str(e), EXIT_USAGE)
    traj = simulate(s)
    try:
        write_trajectory(traj, args.out)
    except OSError as e:
        return _fail(f"cannot write {args.out}: {e}", EXIT_USAGE)
    print(f"final d_xi = {traj.d_xi[-1]:.9g}")
    final = traj.final_state
    for i in range(s.n):
        coords = " ".join(f"{v:.9g}" for v in final[i])
        print(f"agent {i + 1}: {coords}")
    print(f"trajectory written to {args.out}")
    return EXIT_OK


def _paper_summary(stem: str, s: Scenario, traj) -> None:
    final = traj.final_state
    leaders = s.leaders
    if stem == "example1-base":
        print("claim: the group settles on the segment between the two leaders")
        print(f"final positions: {np.array2string(final.ravel(), precision=6)}")
    elif stem == "example1-more-links":
        print("claim: more links toward leader 1 pull the group closer to leader 1")
        _, x_base = equilibrium(example_one_topology("base"), leaders)
        _, x_var = equilibrium(example_one_topology("more-links"), leaders)
        goal = leaders.positions[0]
        base_mean = float(np.sqrt(((x_base - goal) ** 2).sum(axis=1)).mean())
        var_mean = float(np.sqrt(((x_var - goal) ** 2).sum(axis=1)).mean())
        print(f"mean equilibrium distance to leader 1: base {base_mean:.6g}, "
              f"this variant {var_mean:.6g} (smaller by {base_mean - var_mean:.6g})")
    elif stem == "example1-isolated-2":
        print("claim: agent 2, cut off from all agents but linked to leader 1, "
              "still reaches leader 1's locality")
        dist = float(abs(final[1, 0] - leaders.positions[0, 0]))
        print(f"agent 2 final position {final[1, 0]:.6g}, "
              f"distance to leader 1 = {dist:.6g}")
    elif stem == "example1-relay-5":
        print("claim: once agents 2 and 4 sense agent 5, agent 5 also moves "
              "toward leader 1")
        _, x_base = equilibrium(example_one_topology("base"), leaders)
        base5 = float(abs(x_base[4, 0] - leaders.positions[0, 0]))
        var5 = float(abs(final[4, 0] - leaders.positions[0, 0]))
        print(f"agent 5 distance to leader 1: base equilibrium {base5:.6g}, "
              f"this variant {var5:.6g}")
    else:  # example2
        print("claim: the group enters the leader triangle while agents 2..5 "
              "keep a straight-line formation")
        sq = project_points(final, leaders)[2]
        hull_dist = float(np.sqrt(2.0 * sq).max())
        resid = collinearity_residual(final[1:])
        print(f"max final distance to the triangle = {hull_dist:.6g}")
        print(f"collinearity residual of agents 2..5 = {resid:.6g}")


def cmd_paper(args) -> int:
    if args.example == 1:
        if args.variant not in EXAMPLE_ONE_VARIANTS:
            return _fail(
                f"unknown example-1 variant {args.variant!r} "
                f"(known: {', '.join(EXAMPLE_ONE_VARIANTS)})", EXIT_USAGE)
        stem = f"example1-{args.variant}"
    else:
        if args.variant != "base":
            return _fail("example 2 has only the 'base' variant", EXIT_USAGE)
        stem = "example2"
    s = builtin_scenario(stem)
    outdir = Path(args.out)
    traj = simulate(s)
    try:
        scenario_path = write_scenario(s, outdir / f"{stem}.scenario.json")
        traj_path = write_trajectory(traj, outdir / f"{stem}.trajectory.csv")
        plot_path = write_plot_data(traj, outdir / f"{stem}.plot.dat", leaders=s.leaders)
    except OSError as e:
        return _fail(f"cannot write into {outdir}: {e}", EXIT_USAGE)
    _paper_summary(stem, s, traj)
    print(f"files: {scenario_path}, {traj_path}, {plot_path}")
    return EXIT_OK


_VERIFY_DEFAULT_SCENARIO = {
    "lemma1": "builtin:example1-base",
    "lemma2": "builtin:example1-base",
    "theorem1": "builtin:example1-base",
    "theorem2": "builtin:switched",
    "row-stochastic": "builtin:example1-base",
}


def _combine(name: str, parts: list[tuple[int, VerificationReport]]) -> VerificationReport:
    if len(parts) == 1:
        return parts[0][1]
    measured = []
    for pid, rep in parts:
        measured.extend((f"topology{pid}_{label}", v) for label, v in rep.measured)
    return VerificationReport(
        name=name,
        passed=all(r.passed for _, r in parts),
        measured=tuple(measured),
        tolerance=parts[0][1].tolerance,
        narrative=f"{len(parts)} topologies checked",
    )


def cmd_verify(args) -> int:
    check = args.check_opt or args.check
    if check is None:
        return _fail(f"missing check name (one of: {', '.join(CHECK_NAMES)})", EXIT_USAGE)
    if check not in CHECK_NAMES:
        return _fail(f"unknown check {check!r} (one of: {', '.join(CHECK_NAMES)})",
                     EXIT_USAGE)
    if args.random is not None and args.random < 1:
        return _fail("--random needs a positive trial count", EXIT_USAGE)
    try:
        if args.random is not None:
            report = run_random_campaign(check, args.random, args.seed)
        elif check == "leader-pull":
            if args.scenario is not None:
                return _fail("leader-pull compares bundled topologies; use it "
                             "without --scenario or with --random N", EXIT_USAGE)
            extra = LeaderLinks(5, 2, ((2, 1, 1.0), (3, 1, 1.0), (4, 1, 1.0)))
            leaders = LeaderSet(((1.0,), (2.0,)))
            report = leader_pull_monotonicity(example_one_topology("base"), extra, leaders)
        else:
            s = _load_scenario_arg(args.scenario or _VERIFY_DEFAULT_SCENARIO[check])
            if check == "lemma1":
                report = _combine("lemma1", [(pid, check_lemma1(t.graph))
                                             for pid, t in s.topologies])
            elif check == "lemma2":
                report = _combine("lemma2", [(pid, check_lemma2(t))
                                             for pid, t in s.topologies])
            elif check == "theorem1":
                report = check_theorem1(s)
            elif check == "theorem2":
                report = check_theorem2(s)
            else:
                report = _combine("row-stochastic",
                                  [(pid, check_row_stochastic(t))
                                   for pid, t in s.topologies])
    except FileFormatError as e:
        return _fail(str(e), EXIT_USAGE)
    except ScenarioError as e:
        return _fail(str(e), EXIT_INVALID_SCENARIO)
    except (NotAllConnectedError, NotPositiveDefiniteError, ValueError) as e:
        return _fail(str(e), EXIT_USAGE)
    try:
        txt_path, _ = write_report(report, args.out)
    except OSError as e:
        return _fail(f"cannot write into {args.out}: {e}", EXIT_USAGE)
    print(report.to_text())
    print(f"report written to {txt_path}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_plotdata(args) -> int:
    try:
        traj = read_trajectory(args.trajectory)
    except FileFormatError as e:
        return _fail(str(e), EXIT_USAGE)
    leaders = None
    if args.scenario is not None:
        try:
            leaders = _load_scenario_arg(args.scenario).leaders
        except (FileFormatError, ScenarioError, ValueError) as e:
            return _fail(str(e), EXIT_USAGE)
    try:
        write_plot_data(traj, args.out, leaders=leaders)
    except (ValueError, OSError) as e:
        return _fail(str(e), EXIT_USAGE)
    series = traj.n + (1 if leaders is not None else 0) + (traj.n if traj.m == 2 else 0)
    print(f"{series} blocks written to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="containment",
        description="Simulate multi-leader containment dynamics and certify "
                    "their convergence guarantees numerically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate a scenario and write the trajectory CSV")
    p.add_argument("--scenario", required=True,
                   help="scenario file path or builtin:<name>")
    p.add_argument("--out", required=True, help="trajectory CSV output path")
    p.add_argument("--dt", type=float, help="override the scenario step size")
    p.add_argument("--t-final", dest="t_final", type=float,
                   help="override the scenario horizon")

    p = sub.add_parser("paper", help="run a bundled example variant")
    p.add_argument("--example", type=int, choices=(1, 2), required=True)
    p.add_argument("--variant", default="base",
                   help="example 1: base, more-links, isolated-2, relay-5")
    p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("verify", help="run a named verification check")
    p.add_argument("check", nargs="?", choices=CHECK_NAMES, metavar="CHECK",
                   help=f"one of: {', '.join(CHECK_NAMES)}")
    p.add_argument("--check", dest="check_opt", choices=CHECK_NAMES,
                   help="alternative to the positional check name")
    p.add_argument("--scenario", help="scenario file path or builtin:<name>")
    p.add_argument("--random", type=int, metavar="N",
                   help="run a seeded random campaign of N trials instead")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="reports", help="report output directory")

    p = sub.add_parser("plotdata", help="emit gnuplot-ready series from a trajectory CSV")
    p.add_argument("trajectory", help="trajectory CSV path")
    p.add_argument("--out", required=True, help="plot data output path")
    p.add_argument("--scenario",
                   help="scenario (path or builtin:<name>) providing leader markers")
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "paper": cmd_paper,
    "verify": cmd_verify,
    "plotdata": cmd_plotdata,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else EXIT_OK
    return _COMMANDS[args.command](args)


def run() -> None:
    raise SystemExit(main())
