"""Command-line interface.

Subcommands:

* ``simulate`` - integrate a scenario file, write the trajectory CSV, print
  the final containment distance and per-agent positions.
* ``paper``    - run a bundled example variant; writes scenario, trajectory,
  and plot-data files and prints the qualitative claim the variant exercises.
* ``verify``   - run one named check on a scenario (by default the check's
  own builtin one) or as a seeded random campaign; writes one report per
  check as .txt and .json. ``analysis``'s check catalog names the checks and
  says how each runs; this module only parses the arguments.
* ``plotdata`` - convert a trajectory CSV into gnuplot-ready blocks.

Exit codes: 0 success/verified, 1 a verification check failed, 2 usage or
parse error (argparse rejects conflicting arguments; a file that cannot be
written; a leaderless topology where a check needs a leader-connected one),
3 structurally invalid scenario, whichever command loads it.
``main`` alone maps exceptions to these codes; the commands only raise.

Anywhere a ``--scenario`` is accepted, ``builtin:<name>`` refers to a bundled
scenario (for example ``builtin:example1-base`` or ``builtin:necessity``).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .analysis import CHECK_NAMES, check_scenario, run_random_campaign, write_report
from .builtin import EXAMPLE_ONE_VARIANTS, builtin_scenario
from .dynamics import Scenario, ScenarioError, equilibrium, simulate
from .geometry import collinearity_residual, project_points
from .scenario_io import (
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


def _at_least(text: str, low: int, kind: str) -> int:
    """An integer option of at least ``low``, refused as not a ``kind`` integer."""
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(f"must be a {kind} integer, not {text!r}")
    return value


def _load_scenario_arg(value: str, **overrides) -> Scenario:
    if not value:
        raise ValueError("--scenario is empty: give a scenario file path or builtin:<name>")
    if not value.startswith("builtin:"):
        return load_scenario(value, **overrides)
    s = builtin_scenario(value[len("builtin:"):])
    return dataclasses.replace(s, **overrides) if overrides else s


def cmd_simulate(args) -> int:
    overrides = {key: getattr(args, key) for key in ("dt", "t_final")
                 if getattr(args, key) is not None}
    s = _load_scenario_arg(args.scenario, **overrides)
    traj = simulate(s)
    write_trajectory(traj, args.out)
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
        rep = check_scenario("leader-pull")
        print(f"mean equilibrium distance to leader 1: "
              f"base {rep.value('base_mean_distance'):.6g}, "
              f"this variant {rep.value('augmented_mean_distance'):.6g} "
              f"(smaller by {rep.value('decrease'):.6g})")
    elif stem == "example1-isolated-2":
        print("claim: agent 2, cut off from all agents but linked to leader 1, "
              "still reaches leader 1's locality")
        dist = float(abs(final[1, 0] - leaders.positions[0, 0]))
        print(f"agent 2 final position {final[1, 0]:.6g}, "
              f"distance to leader 1 = {dist:.6g}")
    elif stem == "example1-relay-5":
        print("claim: once agents 2 and 4 sense agent 5, agent 5 also moves "
              "toward leader 1")
        _, x_base = equilibrium(builtin_scenario("example1-base").topology(1), leaders)
        base5 = float(abs(x_base[4, 0] - leaders.positions[0, 0]))
        var5 = float(abs(final[4, 0] - leaders.positions[0, 0]))
        print(f"agent 5 distance to leader 1: base equilibrium {base5:.6g}, "
              f"this variant {var5:.6g}")
    else:  # example2
        print("claim: the group enters the leader triangle while agents 2..5 "
              "keep a straight-line formation")
        sq = project_points(final, leaders)
        hull_dist = float(np.sqrt(2.0 * sq).max())
        resid = collinearity_residual(final[1:])
        print(f"max final distance to the triangle = {hull_dist:.6g}")
        print(f"collinearity residual of agents 2..5 = {resid:.6g}")


def cmd_paper(args) -> int:
    if args.example == 2 and args.variant != "base":
        raise ValueError("example 2 has only the 'base' variant")
    stem = f"example1-{args.variant}" if args.example == 1 else "example2"
    s = builtin_scenario(stem)
    outdir = Path(args.out)
    traj = simulate(s)
    scenario_path = write_scenario(s, outdir / f"{stem}.scenario.json")
    traj_path = write_trajectory(traj, outdir / f"{stem}.trajectory.csv")
    plot_path = write_plot_data(traj, outdir / f"{stem}.plot.dat", leaders=s.leaders)
    _paper_summary(stem, s, traj)
    print(f"files: {scenario_path}, {traj_path}, {plot_path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    check = args.check or args.check_opt
    if args.random is not None:
        report = run_random_campaign(check, args.random, args.seed)
    else:
        s = None if args.scenario is None else _load_scenario_arg(args.scenario)
        report = check_scenario(check, s)
    txt_path, _ = write_report(report, args.out)
    print(report.to_text())
    print(f"report written to {txt_path}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_plotdata(args) -> int:
    traj = read_trajectory(args.trajectory)
    leaders = None if args.scenario is None else _load_scenario_arg(args.scenario).leaders
    write_plot_data(traj, args.out, leaders=leaders)
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
    p.add_argument("--variant", default="base", choices=EXAMPLE_ONE_VARIANTS,
                   help="example-1 variant; example 2 takes only base")
    p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("verify", help="run a named verification check")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("check", nargs="?", choices=CHECK_NAMES, metavar="CHECK",
                       help=f"one of: {', '.join(CHECK_NAMES)}; give exactly one "
                            "of CHECK and --check")
    which.add_argument("--check", dest="check_opt", choices=CHECK_NAMES,
                       help="the check name as an option; give exactly one of "
                            "CHECK and --check")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--scenario", help="scenario file path or builtin:<name>")
    source.add_argument("--random", type=lambda s: _at_least(s, 1, "positive"), metavar="N",
                        help="run a seeded random campaign of N trials instead")
    # numpy seeds its generators only from non-negative integers
    p.add_argument("--seed", type=lambda s: _at_least(s, 0, "non-negative"), default=0)
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
    try:
        return _COMMANDS[args.command](args)
    except ScenarioError as e:
        return _fail(str(e), EXIT_INVALID_SCENARIO)
    except ValueError as e:
        return _fail(str(e), EXIT_USAGE)
    except OSError as e:
        # the readers wrap their own OSError in FileFormatError, so this is a write
        return _fail(f"cannot write: {e}", EXIT_USAGE)


def run() -> None:
    raise SystemExit(main())
