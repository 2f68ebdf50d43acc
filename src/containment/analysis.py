"""Numerical certification of the toolkit's convergence guarantees.

Each check simulates or solves the relevant system, compares the measured
quantities against the stated tolerance, and returns a structured report.
``passed`` is always a pure function of the measured values, so reports can
be re-derived from their serialized form.

Check catalog:

* lemma1          - Laplacian spectrum: zero eigenvalue with the all-ones
                    eigenvector, positive algebraic connectivity iff connected.
* lemma2          - composite matrix positive definite iff every component is
                    leader-connected (the converse is a desk-scale check: a
                    leaderless block contributes an exact zero eigenvalue).
* theorem1        - fixed topology: convergence into the leader hull and onto
                    the closed-form equilibrium iff leader-connected; with a
                    leaderless component the flow settles on per-component
                    means of the initial states instead (the block dynamics
                    y' = -L y converge rather than merely staying put or
                    drifting), which pins the residual distance away from
                    zero for generic initial states.
* theorem2        - switched topologies, all leader-connected: the distance
                    certificate decays inside the exponential envelope given
                    by the smallest composite eigenvalue across the schedule,
                    and never increases sample to sample.
* row-stochastic  - equilibrium weights are nonnegative with unit row sums,
                    and the composite inverse is entrywise nonnegative.
* leader-pull     - adding links toward one leader moves the equilibrium mean
                    distance to that leader down (asserted per instance, not
                    as a universal law).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import sampling
from .dynamics import Scenario, Trajectory, build_h, equilibrium, simulate
from .geometry import LeaderSet, project_points
from .graph import (
    AgentGraph,
    LeaderLinks,
    Topology,
    components,
    is_bar_connected,
    laplacian,
    leaderless_components,
    link_weights,
    merge_links,
)
from .linalg import is_row_stochastic, solve_spd, sym_eigenvalues

SPECTRAL_TOL = 1e-9

CHECK_NAMES = ("lemma1", "lemma2", "theorem1", "theorem2", "row-stochastic", "leader-pull")


class NotAllConnectedError(ValueError):
    """A switched-decay check was asked to run with a disconnected topology."""


@dataclass(frozen=True)
class VerificationReport:
    name: str
    passed: bool
    measured: tuple[tuple[str, float], ...]
    tolerance: float
    narrative: str

    def value(self, label: str) -> float:
        for key, v in self.measured:
            if key == label:
                return v
        raise KeyError(label)

    def to_text(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"[{status}] {self.name}: {self.narrative}"]
        lines.append(f"tolerance = {self.tolerance:.9g}")
        for label, v in self.measured:
            lines.append(f"{label} = {v:.9g}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "check": self.name,
            "passed": self.passed,
            "tolerance": self.tolerance,
            "narrative": self.narrative,
            "measured": [[label, v] for label, v in self.measured],
        }


def write_report(report: VerificationReport, outdir) -> tuple[Path, Path]:
    """Serialize one report as <name>.txt and <name>.json under outdir."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    txt = out / f"{report.name}.txt"
    js = out / f"{report.name}.json"
    txt.write_text(report.to_text() + "\n")
    js.write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")
    return txt, js


def check_lemma1(g: AgentGraph) -> VerificationReport:
    """Laplacian spectrum versus component structure."""
    lap = laplacian(g)
    eigs = sym_eigenvalues(lap)
    comps = components(g)
    row_sum = float(np.abs(lap.sum(axis=1)).max())
    zero_mult = int((np.abs(eigs) <= SPECTRAL_TOL).sum())
    connected = len(comps) == 1
    ok = (
        abs(float(eigs[0])) <= SPECTRAL_TOL
        and row_sum <= 1e-12
        and zero_mult == len(comps)
        and (not connected or g.n < 2 or float(eigs[1]) > SPECTRAL_TOL)
    )
    measured = [
        ("lambda1", float(eigs[0])),
        ("max_abs_row_sum", row_sum),
        ("zero_multiplicity", float(zero_mult)),
        ("component_count", float(len(comps))),
    ]
    if g.n >= 2:
        measured.insert(1, ("lambda2", float(eigs[1])))
    word = "connected" if connected else f"{len(comps)} components"
    return VerificationReport(
        name="lemma1",
        passed=bool(ok),
        measured=tuple(measured),
        tolerance=SPECTRAL_TOL,
        narrative=f"Laplacian spectrum consistent with {word}",
    )


def check_lemma2(t: Topology) -> VerificationReport:
    """Composite matrix positive definite exactly when leader-connected."""
    lam_min = float(sym_eigenvalues(build_h(t))[0])
    connected = is_bar_connected(t)
    ok = lam_min > SPECTRAL_TOL if connected else lam_min <= SPECTRAL_TOL
    return VerificationReport(
        name="lemma2",
        passed=bool(ok),
        measured=(
            ("lambda_min", lam_min),
            ("leader_connected", 1.0 if connected else 0.0),
            ("component_count", float(len(components(t.graph)))),
        ),
        tolerance=SPECTRAL_TOL,
        narrative=(
            "composite matrix positive definite as required"
            if connected
            else "composite matrix singular as required for a leaderless component"
        ),
    )


def _disconnected_prediction(t: Topology, x_init: np.ndarray, leaders: LeaderSet):
    """Limit of the leaderless blocks: per-component means of initial states."""
    strays = leaderless_components(t)
    agents: list[int] = []
    targets: list[np.ndarray] = []
    for comp in strays:
        idx = [i - 1 for i in comp]
        mean = x_init[idx].mean(axis=0)
        for i in idx:
            agents.append(i)
            targets.append(mean)
    if not agents:
        return [], np.zeros((0, leaders.m)), 0.0
    target_arr = np.array(targets)
    sq = project_points(target_arr, leaders)[2]
    return agents, target_arr, float(sq.sum())


def check_theorem1(s: Scenario) -> VerificationReport:
    """Fixed topology: containment holds iff the topology is leader-connected.

    The scenario must use a single-entry schedule. Connected instances are
    checked against the closed-form equilibrium; instances with leaderless
    components are checked to settle on the in-component means of their
    initial states, keeping the distance certificate above a positive floor.
    """
    if len(s.schedule.entries) != 1:
        raise ValueError("fixed-topology check requires a single-entry schedule")
    topo = s.topology(s.schedule.entries[0][1])
    traj = simulate(s)
    final = traj.final_state
    d_final = float(traj.d_xi[-1])
    if is_bar_connected(topo):
        _, x_star = equilibrium(topo, s.leaders)
        dev = float(np.abs(final - x_star).max())
        lam_min = float(sym_eigenvalues(build_h(topo))[0])
        d_tol = 0.5e-6 * s.n
        ok = d_final <= d_tol and dev <= 1e-3
        return VerificationReport(
            name="theorem1",
            passed=bool(ok),
            measured=(
                ("leader_connected", 1.0),
                ("final_d_xi", d_final),
                ("final_d_xi_tolerance", d_tol),
                ("max_dev_from_equilibrium", dev),
                ("lambda_min", lam_min),
            ),
            tolerance=1e-3,
            narrative="containment reached and the final state matches the equilibrium",
        )
    agents, targets, d_pred = _disconnected_prediction(topo, s.x_init, s.leaders)
    stray_dev = float(np.abs(final[agents] - targets).max()) if agents else 0.0
    floor = 0.5 * d_pred
    generic = d_pred > SPECTRAL_TOL
    if generic:
        ok = d_final >= floor and stray_dev <= 1e-2
        narrative = (
            "leaderless component settles on its initial mean outside the hull; "
            "containment fails as required (note: the block converges to the "
            "mean rather than staying put or drifting)"
        )
    else:
        ok = True
        narrative = (
            "leaderless component mean already lies in the hull: non-generic "
            "initial condition, not a counterexample to the equivalence"
        )
    return VerificationReport(
        name="theorem1",
        passed=bool(ok),
        measured=(
            ("leader_connected", 0.0),
            ("final_d_xi", d_final),
            ("predicted_d_xi", d_pred),
            ("floor", floor),
            ("leaderless_max_dev", stray_dev),
            ("leaderless_agents", float(len(agents))),
        ),
        tolerance=1e-2,
        narrative=narrative,
    )


def decay_envelope(times, initial_value: float, rate: float, t0: float | None = None,
                   slack: float = 1e-3) -> np.ndarray:
    """Exponential bound initial_value * exp(-rate (t - t0)) * (1 + slack)."""
    t = np.asarray(times, dtype=float)
    start = float(t[0]) if t0 is None else float(t0)
    return initial_value * np.exp(-rate * (t - start)) * (1.0 + slack)


def check_theorem2(s: Scenario) -> VerificationReport:
    """Switched topologies: exponential decay of the distance certificate.

    Requires every topology in the scenario to be leader-connected; raises
    NotAllConnectedError otherwise. The decay rate is the smallest composite
    eigenvalue over the topologies the schedule actually uses.
    """
    for pid, topo in s.topologies:
        if not is_bar_connected(topo):
            raise NotAllConnectedError(f"topology {pid} has a leaderless component")
    scheduled = {pid for _, pid in s.schedule.entries}
    lam1 = min(float(sym_eigenvalues(build_h(s.topology(pid)))[0]) for pid in scheduled)
    traj = simulate(s)
    d = traj.d_xi
    d0 = float(d[0])
    if d0 <= 1e-12:
        max_ratio = float(d.max() / 1e-9)
        env_ok = bool((d <= 1e-9).all())
    else:
        env = decay_envelope(traj.times, d0, lam1, t0=s.t0)
        ratios = d / np.maximum(env, 1e-12)
        max_ratio = float(ratios.max())
        env_ok = bool((d <= np.maximum(env, 1e-12)).all())
    excess = np.diff(d) - 1e-9 * (1.0 + d[:-1])
    max_excess = float(excess.max()) if excess.size else 0.0
    mono_ok = max_excess <= 0.0
    return VerificationReport(
        name="theorem2",
        passed=bool(env_ok and mono_ok),
        measured=(
            ("lambda1", lam1),
            ("initial_d_xi", d0),
            ("final_d_xi", float(d[-1])),
            ("max_envelope_ratio", max_ratio),
            ("max_monotonicity_excess", max_excess),
            ("samples", float(d.size)),
        ),
        tolerance=1e-3,
        narrative="distance certificate stays inside the exponential envelope "
        f"at rate {lam1:.6g} and never increases",
    )


def check_row_stochastic(t: Topology) -> VerificationReport:
    """Equilibrium weights are a row-stochastic map from leaders to agents."""
    h = build_h(t)
    w = solve_spd(h, link_weights(t))
    h_inv = solve_spd(h, np.eye(t.graph.n))
    min_w = float(w.min())
    row_err = float(np.abs(w.sum(axis=1) - 1.0).max())
    min_inv = float(h_inv.min())
    ok = is_row_stochastic(w, SPECTRAL_TOL) and min_inv >= -SPECTRAL_TOL
    return VerificationReport(
        name="row-stochastic",
        passed=bool(ok),
        measured=(
            ("min_weight", min_w),
            ("max_row_sum_error", row_err),
            ("min_h_inverse_entry", min_inv),
        ),
        tolerance=SPECTRAL_TOL,
        narrative="equilibrium weights nonnegative with unit row sums; "
        "composite inverse entrywise nonnegative",
    )


def leader_pull_monotonicity(base: Topology, extra: LeaderLinks,
                             leaders: LeaderSet) -> VerificationReport:
    """Adding links toward one leader pulls the equilibrium toward it.

    ``extra`` may only contain links to a single leader; its weights add onto
    any existing links. The comparison is the mean over agents of the
    Euclidean distance from the equilibrium position to that leader.
    """
    if (extra.n, extra.k) != (base.graph.n, base.leaders.k):
        raise ValueError("extra links describe a different system")
    if not is_bar_connected(base):
        raise ValueError("base topology must be leader-connected")
    targets = {q for _, q, _ in extra.links}
    if len(targets) > 1:
        raise ValueError(f"extra links target several leaders: {sorted(targets)}")
    q = targets.pop() if targets else 1
    _, x_base = equilibrium(base, leaders)
    augmented = Topology(base.graph, merge_links(base.leaders, extra))
    _, x_aug = equilibrium(augmented, leaders)
    goal = leaders.positions[q - 1]
    base_mean = float(np.sqrt(((x_base - goal) ** 2).sum(axis=1)).mean())
    aug_mean = float(np.sqrt(((x_aug - goal) ** 2).sum(axis=1)).mean())
    ok = aug_mean <= base_mean + 1e-12
    return VerificationReport(
        name="leader-pull",
        passed=bool(ok),
        measured=(
            ("leader", float(q)),
            ("base_mean_distance", base_mean),
            ("augmented_mean_distance", aug_mean),
            ("decrease", base_mean - aug_mean),
        ),
        tolerance=1e-12,
        narrative=f"mean equilibrium distance to leader {q} does not increase "
        "when links toward it are added",
    )


def _aggregate(name: str, reports: list[VerificationReport], tolerance: float,
               extremes: dict[str, float]) -> VerificationReport:
    failed = [i for i, r in enumerate(reports) if not r.passed]
    failures = len(failed)
    measured = [("trials", float(len(reports))), ("failures", float(failures))]
    if failed:
        measured.append(("first_failed_trial", float(failed[0])))
    measured.extend(sorted(extremes.items()))
    return VerificationReport(
        name=name,
        passed=failures == 0,
        measured=tuple(measured),
        tolerance=tolerance,
        narrative=f"{len(reports)} randomized trials, {failures} failures",
    )


def run_random_campaign(check: str, trials: int, seed: int) -> VerificationReport:
    """Run a seeded random campaign for one named check and aggregate it.

    Trials are generated from (seed, trial index) so campaigns reproduce
    exactly; a failing campaign reports ``first_failed_trial``, whose instance
    ``sampling.rng_for(seed, first_failed_trial)`` regenerates. theorem1
    alternates leader-connected and leaderless-component instances;
    leader-pull stays in the two-leader regime where the
    monotonicity is provable, since with three or more leaders it holds only
    instance by instance.
    """
    if check not in CHECK_NAMES:
        raise ValueError(f"unknown check {check!r}")
    if trials < 1:
        raise ValueError("need at least one trial")
    reports: list[VerificationReport] = []
    ext: dict[str, float] = {}

    def track(label: str, value: float, reducer=min):
        ext[label] = value if label not in ext else reducer(ext[label], value)

    for i in range(trials):
        rng = sampling.rng_for(seed, i)
        if check == "lemma1":
            rep = check_lemma1(sampling.random_graph(rng))
            track("max_abs_lambda1", abs(rep.value("lambda1")), max)
        elif check == "lemma2":
            rep = check_lemma2(sampling.random_topology(rng, linked=i % 2 == 0))
            if rep.value("leader_connected"):
                track("min_lambda_min_connected", rep.value("lambda_min"))
            else:
                track("max_lambda_min_disconnected", rep.value("lambda_min"), max)
        elif check == "theorem1":
            rep = check_theorem1(sampling.settle_scenario(rng, connected=i % 2 == 0))
            if rep.value("leader_connected"):
                track("max_dev_from_equilibrium", rep.value("max_dev_from_equilibrium"), max)
            else:
                track("min_final_d_xi_disconnected", rep.value("final_d_xi"))
        elif check == "theorem2":
            rep = check_theorem2(sampling.random_switched_scenario(rng))
            track("max_envelope_ratio", rep.value("max_envelope_ratio"), max)
        elif check == "row-stochastic":
            rep = check_row_stochastic(sampling.random_connected_topology(rng))
            track("min_weight", rep.value("min_weight"))
            track("max_row_sum_error", rep.value("max_row_sum_error"), max)
        else:  # leader-pull
            base = sampling.random_connected_topology(rng, k=2)
            n, k = base.graph.n, 2
            q = int(rng.integers(1, k + 1))
            adds = {}
            for agent in range(1, n + 1):
                if rng.random() < 0.4:
                    adds[(agent, q)] = float(rng.uniform(0.5, 2.0))
            if not adds:
                adds[(int(rng.integers(1, n + 1)), q)] = 1.0
            extra = LeaderLinks(n, k, tuple((a, ql, w) for (a, ql), w in sorted(adds.items())))
            leaders = sampling.random_leader_set(rng, k, int(rng.integers(1, 4)))
            rep = leader_pull_monotonicity(base, extra, leaders)
            track("min_decrease", rep.value("decrease"))
        reports.append(rep)
    tolerance = reports[0].tolerance
    return _aggregate(check, reports, tolerance, ext)
