"""Numerical certification of the toolkit's convergence guarantees.

Each check simulates or solves the relevant system, compares the measured
quantities against the stated tolerance, and returns a structured report.
Theorem 1 is about where the agents end up, so it reads only the terminal
state (``dynamics.terminal_state``) and does not simulate the trajectory;
theorem 2 reads every sample.
``passed`` is always a pure function of the measured values, so reports can
be re-derived from their serialized form.

The check catalog ``_CHECKS`` at the end of this module alone names the
checks; ``check_scenario`` and ``run_random_campaign`` read each row.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import sampling
from .builtin import EXAMPLE_ONE_PULL_LINKS, builtin_scenario
from .dynamics import Scenario, equilibrium, simulate, terminal_state
from .geometry import LeaderSet, d_xi
from .graph import (
    AgentGraph,
    LeaderLinks,
    Topology,
    laplacian,
    merge_links,
)
from .linalg import sym_eigenvalues

SPECTRAL_TOL = 1e-9
# eigh's eigenvalues of a symmetric n x n matrix are within a small multiple
# of n eps lambda_max of the exact ones, so one within _EIG_ROUNDING n
# lambda_max of 0 counts as zero; a computed zero came within 0.62 n eps
# lambda_max over 6 000 random graphs and 6 000 random topologies
_EIG_ROUNDING = 10.0 * np.finfo(float).eps


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
    """Laplacian spectrum versus component structure.

    An eigenvalue or a row sum counts as zero within eigh's rounding,
    ``_EIG_ROUNDING`` n times the spectral scale ||L|| (the largest
    eigenvalue), so the verdict depends on neither the weights' scale nor
    their spread.
    """
    lap = laplacian(g)
    eigs = sym_eigenvalues(lap)
    comps = g.components
    row_sum = float(np.abs(lap.sum(axis=1)).max())
    scale = float(eigs[-1])
    zero = _EIG_ROUNDING * g.n * scale
    zero_mult = int((np.abs(eigs) <= zero).sum())
    connected = len(comps) == 1
    ok = (
        abs(float(eigs[0])) <= zero
        and row_sum <= zero
        and zero_mult == len(comps)
        and (not connected or g.n < 2 or float(eigs[1]) > zero)
    )
    measured = [
        ("lambda1", float(eigs[0])),
        ("max_abs_row_sum", row_sum),
        ("zero_multiplicity", float(zero_mult)),
        ("component_count", float(len(comps))),
        ("spectral_scale", scale),
        ("zero_threshold", zero),
    ]
    if g.n >= 2:
        measured.insert(1, ("lambda2", float(eigs[1])))
    word = "connected" if connected else f"{len(comps)} components"
    return VerificationReport(
        name="lemma1",
        passed=bool(ok),
        measured=tuple(measured),
        tolerance=_EIG_ROUNDING,
        narrative=f"Laplacian spectrum consistent with {word}",
    )


def check_lemma2(t: Topology) -> VerificationReport:
    """Composite matrix positive definite exactly when leader-connected.

    lambda_min counts as zero within eigh's rounding, ``_EIG_ROUNDING`` n
    times the spectral scale ||H|| (the largest eigenvalue), so the verdict
    depends on neither the weights' scale nor their spread.
    """
    eigs = t.spectrum[0]
    lam_min, scale = float(eigs[0]), float(eigs[-1])
    connected = not t.leaderless_components
    zero = _EIG_ROUNDING * t.graph.n * scale
    ok = lam_min > zero if connected else lam_min <= zero
    return VerificationReport(
        name="lemma2",
        passed=bool(ok),
        measured=(
            ("lambda_min", lam_min),
            ("leader_connected", 1.0 if connected else 0.0),
            ("component_count", float(len(t.graph.components))),
            ("spectral_scale", scale),
            ("zero_threshold", zero),
        ),
        tolerance=_EIG_ROUNDING,
        narrative=(
            "composite matrix positive definite as required"
            if connected
            else "composite matrix singular as required for a leaderless component"
        ),
    )


def _disconnected_prediction(t: Topology, x_init: np.ndarray, leaders: LeaderSet):
    """Limit of the leaderless blocks, of which t has at least one: the
    per-component means of the initial states."""
    agents: list[int] = []
    targets: list[np.ndarray] = []
    for comp in t.leaderless_components:
        idx = [i - 1 for i in comp]
        agents.extend(idx)
        targets.extend([x_init[idx].mean(axis=0)] * len(idx))
    target_arr = np.array(targets)
    return agents, target_arr, d_xi(target_arr, leaders)


def check_theorem1(s: Scenario) -> VerificationReport:
    """Fixed topology: containment holds iff the topology is leader-connected.

    The scenario must use a single-entry schedule. Only the state at the
    horizon is read, from ``terminal_state``, and ``final_d_xi`` is its
    distance certificate; no trajectory is simulated. Connected instances are
    checked against the closed-form equilibrium; instances with leaderless
    components are checked to settle on the in-component means of their
    initial states, keeping the distance certificate above a positive floor.
    """
    if len(s.segments) != 1:
        raise ValueError("fixed-topology check requires a single-entry schedule")
    pid = s.segments[0][2]
    topo = s.topology(pid)
    final = terminal_state(s)
    d_final = d_xi(final, s.leaders)
    if not topo.leaderless_components:
        _, x_star = equilibrium(topo, s.leaders)
        dev = float(np.abs(final - x_star).max())
        lam_min = float(topo.spectrum[0][0])
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
    stray_dev = float(np.abs(final[agents] - targets).max())
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


def decay_envelope(times, initial_value: float, rate: float) -> np.ndarray:
    """Exponential bound initial_value * exp(-rate (t - times[0])) * (1 + 1e-3)."""
    t = np.asarray(times, dtype=float)
    return initial_value * np.exp(-rate * (t - t[0])) * (1.0 + 1e-3)


def check_theorem2(s: Scenario) -> VerificationReport:
    """Switched topologies: exponential decay of the distance certificate.

    Requires every topology in the scenario to be leader-connected; raises
    NotAllConnectedError otherwise. The decay rate is the smallest composite
    eigenvalue over the topologies the schedule actually uses.
    """
    for pid, topo in s.topologies:
        topo.require_leader_connected(f"topology {pid}: ")
    scheduled = {pid for _, _, pid in s.segments}
    lam1 = min(float(s.topology(pid).spectrum[0][0]) for pid in scheduled)
    traj = simulate(s)
    d = traj.d_xi
    d0 = float(d[0])
    if d0 <= 1e-12:
        bound = np.full(d.shape, 1e-9)
    else:
        bound = np.maximum(decay_envelope(traj.times, d0, lam1), 1e-12)
    max_ratio = float((d / bound).max())
    env_ok = bool((d <= bound).all())
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
    """Equilibrium weights are a row-stochastic map from leaders to agents.

    W and H^-1 come from one ``t.solve``; a leaderless topology raises
    NotAllConnectedError.
    """
    n = t.graph.n
    solved = t.solve(np.hstack([t.link_weights, np.eye(n)]))
    w, h_inv = solved[:, :-n], solved[:, -n:]
    min_w = float(w.min())
    row_err = float(np.abs(w.sum(axis=1) - 1.0).max())
    min_inv = float(h_inv.min())
    ok = min_w >= -SPECTRAL_TOL and row_err <= SPECTRAL_TOL and min_inv >= -SPECTRAL_TOL
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
    Euclidean distance from the equilibrium position to that leader. A
    leaderless base raises NotAllConnectedError from ``equilibrium``.
    """
    if (extra.n, extra.k) != (base.graph.n, base.leaders.k):
        raise ValueError("extra links describe a different system")
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


def run_random_campaign(check: str, trials: int, seed: int) -> VerificationReport:
    """Run a seeded random campaign for one named check and aggregate it.

    Trials are generated from (seed, trial index) so campaigns reproduce
    exactly; a failing campaign reports ``first_failed_trial``, whose instance
    ``sampling.rng_for(seed, first_failed_trial)`` regenerates. Each tracked
    value keeps its extreme: the maximum for a ``max_`` label, else the minimum.
    """
    row = _row(check)
    if trials < 1:
        raise ValueError("need at least one trial")
    reports = [row.trial(sampling.rng_for(seed, i), i) for i in range(trials)]
    ext: dict[str, float] = {}
    for rep in reports:
        for label, v in row.tracked(rep).items():
            keep = max if label.startswith("max_") else min
            ext[label] = v if label not in ext else keep(ext[label], v)
    failed = [i for i, r in enumerate(reports) if not r.passed]
    measured = [("trials", float(trials)), ("failures", float(len(failed)))]
    if failed:
        measured.append(("first_failed_trial", float(failed[0])))
    return VerificationReport(
        name=check,
        passed=not failed,
        measured=tuple(measured + sorted(ext.items())),
        tolerance=reports[0].tolerance,
        narrative=f"{trials} randomized trials, {len(failed)} failures",
    )


def check_scenario(check: str, s: Scenario | None = None) -> VerificationReport:
    """Run one named check on a scenario, or on its default builtin scenario
    when ``s`` is None.

    Per-topology checks combine their reports under ``topology<id>_`` labels
    when there are several, and an error names the topology that raised it.
    Raises ValueError for an unknown name and for a scenario given to a check
    that runs only on its default (leader-pull).
    """
    row = _row(check)
    if s is None:
        s = builtin_scenario(row.default)
    elif row.runs_on == "default":
        raise ValueError(f"check {check!r} runs only on its bundled instance; "
                         "run it without a scenario or as a random campaign")
    if row.runs_on == "topology":
        return _combine(check, [(pid, _on_topology(row.run, pid, t)) for pid, t in s.topologies])
    return row.run(s)


def _on_topology(run: Callable, pid: int, t: Topology) -> VerificationReport:
    """``run(t)``; a ValueError it raises is raised again with the prefix
    ``"topology <pid>: "``, as theorem 2 names a leaderless topology."""
    try:
        return run(t)
    except ValueError as e:
        raise type(e)(f"topology {pid}: {e}") from e


@dataclass(frozen=True)
class _Check:
    """One row of the check catalog.

    ``run`` takes what ``runs_on`` names: "scenario" (the whole scenario),
    "topology" (each topology in turn) or "default" (the row's ``default``
    builtin scenario only). ``trial(rng, i)`` draws and checks random trial
    i; ``tracked`` gives the ``max_``/``min_`` values a campaign tracks.
    """

    runs_on: str
    run: Callable
    trial: Callable[[np.random.Generator, int], VerificationReport]
    tracked: Callable[[VerificationReport], dict[str, float]]
    default: str = "example1-base"


def _row(check: str) -> _Check:
    if check not in _CHECKS:
        raise ValueError(f"unknown check {check!r}")
    return _CHECKS[check]


# Each row calls check_* through a lambda, so the name is looked up at run time.
_CHECKS = {
    # Laplacian spectrum: zero eigenvalue with the all-ones eigenvector,
    # positive algebraic connectivity iff connected.
    "lemma1": _Check(
        "topology", lambda t: check_lemma1(t.graph),
        trial=lambda rng, i: check_lemma1(sampling.random_graph(rng)),
        tracked=lambda r: {"max_abs_lambda1": abs(r.value("lambda1"))}),
    # Composite matrix positive definite iff every component is
    # leader-connected (the converse is a desk-scale check: a leaderless block
    # contributes an exact zero eigenvalue). Trials alternate the two cases.
    "lemma2": _Check(
        "topology", lambda t: check_lemma2(t),
        trial=lambda rng, i: check_lemma2(sampling.random_topology(rng, linked=i % 2 == 0)),
        tracked=lambda r: {("min_lambda_min_connected" if r.value("leader_connected")
                            else "max_lambda_min_disconnected"): r.value("lambda_min")}),
    # Fixed topology: convergence into the leader hull and onto the
    # closed-form equilibrium iff leader-connected; with a leaderless
    # component the flow settles on per-component means of the initial states
    # instead (the block dynamics y' = -L y converge rather than merely
    # staying put or drifting), which pins the residual distance away from
    # zero for generic initial states. Trials alternate the two cases.
    "theorem1": _Check(
        "scenario", lambda s: check_theorem1(s),
        trial=lambda rng, i: check_theorem1(sampling.settle_scenario(rng, connected=i % 2 == 0)),
        tracked=lambda r: (
            {"max_dev_from_equilibrium": r.value("max_dev_from_equilibrium")}
            if r.value("leader_connected")
            else {"min_final_d_xi_disconnected": r.value("final_d_xi")})),
    # Switched topologies, all leader-connected: the distance certificate
    # decays inside the exponential envelope given by the smallest composite
    # eigenvalue across the schedule, and never increases sample to sample.
    "theorem2": _Check(
        "scenario", lambda s: check_theorem2(s), default="switched",
        trial=lambda rng, i: check_theorem2(sampling.random_switched_scenario(rng)),
        tracked=lambda r: {"max_envelope_ratio": r.value("max_envelope_ratio")}),
    # Equilibrium weights are nonnegative with unit row sums, and the
    # composite inverse is entrywise nonnegative.
    "row-stochastic": _Check(
        "topology", lambda t: check_row_stochastic(t),
        trial=lambda rng, i: check_row_stochastic(sampling.random_connected_topology(rng)),
        tracked=lambda r: {"min_weight": r.value("min_weight"),
                           "max_row_sum_error": r.value("max_row_sum_error")}),
    # Adding links toward one leader moves the equilibrium mean distance to
    # that leader down (asserted per instance, not as a universal law); by
    # default example 1's base against base plus the more-links links. Trials
    # stay with two leaders, where the monotonicity is provable.
    "leader-pull": _Check(
        "default", lambda s: leader_pull_monotonicity(s.topology(1), EXAMPLE_ONE_PULL_LINKS,
                                                      s.leaders),
        trial=lambda rng, i: leader_pull_monotonicity(*sampling.random_leader_pull_case(rng)),
        tracked=lambda r: {"min_decrease": r.value("decrease")}),
}

CHECK_NAMES = tuple(_CHECKS)
