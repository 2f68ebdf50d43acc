"""Acceptance suite: one test per numbered criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print. Random campaigns are seed-fixed so every run checks the same
instances.
"""

import time

import numpy as np
import pytest

from conftest import (
    is_bar_connected,
    leaderless_components,
    projection_oracle,
    random_projection_case,
)

from containment.analysis import check_theorem2, leader_pull_monotonicity
from containment.builtin import example_one, example_one_topology, example_two, switched_demo
from containment.dynamics import equilibrium, simulate
from containment.geometry import collinearity_residual, project_points
from containment.graph import LeaderLinks, build_h, laplacian
from containment.linalg import sym_eigenvalues
from containment.sampling import (
    random_graph,
    random_topology,
    rng_for,
    settle_scenario,
)
from containment.scenario_io import write_trajectory

SEED = 20260808


def report(num: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def connected_trials():
    """100 seed-fixed connected scenarios: final simulated state and weights."""
    out = []
    for trial in range(100):
        s = settle_scenario(rng_for(SEED, trial), connected=True)
        topo = s.topology(1)
        w, x_star = equilibrium(topo, s.leaders)
        deviation = float(np.abs(simulate(s).final_state - x_star).max())
        out.append((deviation, w))
    return out


def test_criterion_1_example_one_reproduction():
    s = example_one("base")
    assert s.t_final == 50.0 and s.dt == 0.01
    start = time.perf_counter()
    traj = simulate(s)
    elapsed = time.perf_counter() - start
    final = traj.final_state.ravel()
    ok = final.min() >= 0.999 and final.max() <= 2.001 and elapsed < 1.0
    report(1, ok, f"final range [{final.min():.6f}, {final.max():.6f}], "
                  f"runtime {elapsed:.3f}s")


def test_criterion_2_example_two_reproduction():
    s = example_two()
    start = time.perf_counter()
    traj = simulate(s)
    elapsed = time.perf_counter() - start
    final = traj.final_state
    dist = np.sqrt(2.0 * project_points(final, s.leaders))
    resid = collinearity_residual(final[1:])
    ok = dist.max() <= 1e-3 and resid <= 1e-3 and elapsed < 2.0
    report(2, ok, f"max triangle distance {dist.max():.3e}, "
                  f"collinearity residual {resid:.3e}, runtime {elapsed:.3f}s")


def test_criterion_3_long_run_matches_equilibrium(connected_trials):
    worst = max(dev for dev, _ in connected_trials)
    report(3, worst <= 1e-4,
           f"100 connected trials, worst |simulate - equilibrium| = {worst:.3e}")


def test_criterion_4_row_stochastic_weights(connected_trials):
    min_entry = min(float(w.min()) for _, w in connected_trials)
    row_err = max(float(np.abs(w.sum(axis=1) - 1.0).max()) for _, w in connected_trials)
    ok = min_entry >= -1e-9 and row_err <= 1e-9
    report(4, ok, f"min weight {min_entry:.3e}, max row-sum error {row_err:.3e}")


def test_criterion_5_necessity_floor_and_mean_limit():
    worst_d = np.inf
    worst_dev = 0.0
    for trial in range(50):
        s = settle_scenario(rng_for(SEED + 1, trial), connected=False)
        topo = s.topology(1)
        traj = simulate(s)
        final = traj.final_state
        x0 = np.asarray(s.x_init)
        devs = []
        for comp in leaderless_components(topo):
            idx = [i - 1 for i in comp]
            mean = x0[idx].mean(axis=0)
            devs.append(float(np.abs(final[idx] - mean).max()))
        worst_d = min(worst_d, float(traj.d_xi[-1]))
        worst_dev = max(worst_dev, max(devs))
    ok = worst_d >= 0.4 and worst_dev <= 1e-2
    report(5, ok, f"50 disconnected trials, min final d_xi {worst_d:.3f}, "
                  f"max deviation from component mean {worst_dev:.3e}")


def test_criterion_6_switched_decay_envelope():
    s = switched_demo()
    rep = check_theorem2(s)
    samples = int(rep.value("samples"))
    ok = rep.passed and samples >= 3000
    report(6, ok, f"lambda1 {rep.value('lambda1'):.6f}, "
                  f"max envelope ratio {rep.value('max_envelope_ratio'):.6f}, "
                  f"max monotonicity excess {rep.value('max_monotonicity_excess'):.3e} "
                  f"over {samples} samples")


def test_criterion_7_spectral_checks():
    zero_mismatches = 0
    lambda2_mismatches = 0
    for trial in range(100):
        g = random_graph(rng_for(SEED + 2, trial))
        eigs = sym_eigenvalues(laplacian(g))
        comps = g.components
        if int((np.abs(eigs) <= 1e-9).sum()) != len(comps):
            zero_mismatches += 1
        if (float(eigs[1]) > 1e-9) != (len(comps) == 1):
            lambda2_mismatches += 1
    h_mismatches = 0
    for trial in range(100):
        t = random_topology(rng_for(SEED + 3, trial), linked=trial % 2 == 0)
        lam_min = float(sym_eigenvalues(build_h(t))[0])
        if (lam_min > 1e-9) != is_bar_connected(t):
            h_mismatches += 1
    ok = zero_mismatches == 0 and lambda2_mismatches == 0 and h_mismatches == 0
    report(7, ok, f"multiplicity mismatches {zero_mismatches}, "
                  f"lambda2 mismatches {lambda2_mismatches}, "
                  f"composite-definiteness mismatches {h_mismatches}")


def test_criterion_8_leader_pull_monotonicity():
    extra = LeaderLinks(5, 2, ((2, 1, 1.0), (3, 1, 1.0), (4, 1, 1.0)))
    rep = leader_pull_monotonicity(
        example_one_topology("base"), extra, example_one("base").leaders
    )
    decrease = rep.value("decrease")
    ok = rep.passed and decrease >= 1e-3
    report(8, ok, f"mean distance to leader 1 decreases by {decrease:.6f}")


def test_criterion_9_projection_oracle_agreement():
    worst = 0.0
    for trial in range(1000):
        x, leaders = random_projection_case(rng_for(SEED + 4, trial))
        got = float(project_points(x[None, :], leaders)[0])
        _, want = projection_oracle(x, leaders.positions)
        worst = max(worst, abs(got - want))
    report(9, worst <= 1e-8, f"1000 cases, worst |sq_dist - oracle| = {worst:.3e}")


def test_criterion_10_deterministic_trajectories(tmp_path):
    identical = True
    for name, factory in (("example1", example_one), ("example2", example_two)):
        contents = []
        for run in range(2):
            traj = simulate(factory())
            path = write_trajectory(traj, tmp_path / f"{name}-{run}.csv")
            contents.append(path.read_bytes())
        identical = identical and contents[0] == contents[1]
    report(10, identical, "repeated example runs produce byte-identical CSVs")
