"""Closed-loop neighbor dynamics under fixed or switched interconnection.

Each agent integrates velocity feedback toward its graph neighbors plus any
leaders it senses. Stacked over agents the flow is linear,

    x' = -(H (x) I_m) x + forcing,    H = L + sum_q diag(b^q),

so the closed-form equilibrium is one ``Topology.solve`` per topology, and
long-horizon integration doubles as an independent check of it. H is
``graph.build_h``, and the forcing is ``Topology.link_weights`` times the
leader positions. The integrator is classical fixed-step RK4. A
``Scenario`` decides its start, switches and horizon on the step grid once,
with one tolerance relative to dt, and every reader takes the resulting
``segments``, so trajectories are bit-reproducible.

On a switching segment the flow is linear and time-invariant, so one RK4
step is the matrix map x -> r(-dt H) x + dt p(-dt H) f with

    r(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 = 1 + z p(z),
    p(z) = 1 + z/2 + z^2/6 + z^3/24

(Hairer & Wanner, Solving ODEs II, section IV.2). As r(-x) = 1 - x p(-x),
|r(-dt lambda)| <= 1 exactly for 0 <= dt lambda <= 2.78529356340528162..., the
root of p(-x). ``Scenario``'s one rule for dt is dt lambda_max < ``_RK4_LIMIT``,
the first double past that root, on each scheduled topology; NaN and inf fail
it. With H = V diag(lambda) V^T
from ``Topology.spectrum``, computed once per topology, mode i of y = V^T x
after j steps is exactly

    y_j = r^j y_0 + dt p (r^j - 1) / (r - 1) g,    g = V^T f,

or y_0 + j dt g where lambda_i = 0. ``_segment`` evaluates this recurrence
in closed form at chosen step indices j instead of stepping: r > 0 on the
whole real axis, so r^j is exp(j log1p(z p)) and r^j - 1 is expm1 of the
same exponent, both free of the cancellation in r - 1. ``simulate`` asks
for every step of each segment; ``terminal_state`` asks for each segment's
last step only, chaining segment ends, and lands on the same bits as
``simulate``'s last row. Steps are evaluated in blocks of as many rows as
``_CELLS`` state cells hold (at least one row), so a block's state-sized
temporaries hold at most 128 KB, which stays in cache, unless one row alone
is larger. Each row's arithmetic is its own, so the block size changes no
bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import LeaderSet, project_points
from .graph import Topology

GRID_REL_TOL = 1e-6
_CELLS = 1 << 14  # state cells per block of the closed-form segment tables
_RK4_LIMIT = 2.785293563405282


class ScenarioError(ValueError):
    """A scenario field violates a structural invariant."""


@dataclass(frozen=True)
class SwitchingSchedule:
    """Piecewise-constant topology assignment: (time, topology id) entries.

    Times are strictly increasing; entry l governs the interval
    [t_l, t_{l+1}) and the final entry governs through the horizon.
    """

    entries: tuple[tuple[float, int], ...]

    def __post_init__(self):
        if not self.entries:
            raise ScenarioError("schedule needs at least one entry")
        canon = tuple((float(t), int(p)) for t, p in self.entries)
        for (t0, _), (t1, _) in zip(canon, canon[1:]):
            if t1 <= t0:
                raise ScenarioError("schedule times must be strictly increasing")
        object.__setattr__(self, "entries", canon)

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.entries)


def _grid_steps(span: float, dt: float, what: str) -> int:
    r = span / dt
    if not np.isfinite(r):
        raise ScenarioError(f"{what} {span} is not a finite number of steps of dt={dt}")
    if abs(r - round(r)) > GRID_REL_TOL:
        raise ScenarioError(f"{what} {span} is not a multiple of dt={dt}")
    return round(r)


@dataclass(frozen=True, eq=False)
class Scenario:
    """A full experiment: initial states, leaders, topology library, schedule.

    ``topologies`` maps integer ids to Topology values; the schedule refers
    to those ids. Construction validates dimensional consistency, puts the
    horizon and every switching time on the step grid once, as ``segments``
    of (first step, last step, topology id), and checks RK4 stability of dt
    on every scheduled topology from lambda_max of ``Topology.spectrum``.
    """

    m: int
    x_init: np.ndarray
    leaders: LeaderSet
    topologies: tuple[tuple[int, Topology], ...]
    schedule: SwitchingSchedule
    dt: float
    t_final: float
    t0: float = 0.0
    notes: str = ""
    segments: tuple[tuple[int, int, int], ...] = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 1:
            raise ScenarioError("dimension m must be a positive integer")
        x = np.array(self.x_init, dtype=float)
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] != self.m:
            raise ScenarioError(
                f"x_init must be a nonempty (n, {self.m}) array, got shape {x.shape}"
            )
        if not np.isfinite(x).all():
            raise ScenarioError("x_init must be finite")
        x.setflags(write=False)
        object.__setattr__(self, "x_init", x)
        n = x.shape[0]
        if self.leaders.m != self.m:
            raise ScenarioError(
                f"leaders live in R^{self.leaders.m} but the scenario is R^{self.m}"
            )
        topo = tuple((int(pid), t) for pid, t in self.topologies)
        if not topo:
            raise ScenarioError("need at least one topology")
        ids = [pid for pid, _ in topo]
        if len(set(ids)) != len(ids):
            raise ScenarioError("topology ids must be unique")
        for pid, t in topo:
            if t.graph.n != n:
                raise ScenarioError(f"topology {pid} has {t.graph.n} agents, expected {n}")
            if t.leaders.k != self.leaders.k:
                raise ScenarioError(
                    f"topology {pid} links {t.leaders.k} leaders, expected {self.leaders.k}"
                )
        object.__setattr__(self, "topologies", topo)
        for name in ("dt", "t0", "t_final"):
            value = float(getattr(self, name))
            if not np.isfinite(value):
                raise ScenarioError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if self.dt <= 0:
            raise ScenarioError("dt must be positive")
        if self.t_final <= self.t0:
            raise ScenarioError("t_final must exceed t0")
        steps = _grid_steps(self.t_final - self.t0, self.dt, "horizon")
        times = self.schedule.times
        starts = [_grid_steps(t - self.t0, self.dt, "switch time offset") for t in times]
        if starts[0] != 0:
            raise ScenarioError(f"schedule must start at t0={self.t0}, got {times[0]}")
        for ta, tb, a, b in zip(times, times[1:], starts, starts[1:]):
            if b <= a:
                raise ScenarioError(f"dwell {tb - ta} is shorter than one step")
        if starts[-1] >= steps:
            raise ScenarioError(f"switch at {times[-1]} is at or after the horizon")
        segments = tuple(zip(starts, starts[1:] + [steps], [p for _, p in self.schedule.entries]))
        object.__setattr__(self, "segments", segments)
        for pid in sorted({pid for _, _, pid in segments}):
            if pid not in ids:
                raise ScenarioError(f"schedule uses unknown topology id {pid}")
            lam_max = float(self.topology(pid).spectrum[0][-1])
            if not self.dt * lam_max < _RK4_LIMIT:
                raise ScenarioError(
                    f"dt={self.dt} is unstable for RK4 on topology {pid} "
                    f"(dt * lambda_max = {self.dt * lam_max:.4g}); "
                    f"use dt <= {2.5 / lam_max:.3g}"
                )

    @property
    def n(self) -> int:
        return self.x_init.shape[0]

    def topology(self, pid: int) -> Topology:
        for known, t in self.topologies:
            if known == pid:
                return t
        raise KeyError(pid)

    @property
    def step_count(self) -> int:
        return self.segments[-1][1]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled solution: states are stacked row-major per sample."""

    times: np.ndarray
    states: np.ndarray
    topologies: np.ndarray
    d_xi: np.ndarray
    n: int
    m: int

    def __post_init__(self):
        for name in ("times", "states", "topologies", "d_xi"):
            a = getattr(self, name)
            a = np.asarray(a)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        s = self.times.shape[0]
        if self.states.shape != (s, self.n * self.m):
            raise ValueError("states shape does not match sample count and n*m")
        if self.topologies.shape != (s,) or self.d_xi.shape != (s,):
            raise ValueError("per-sample columns must match the time axis")

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1].reshape(self.n, self.m)


def _segment(out: np.ndarray, x0: np.ndarray, steps, lam: np.ndarray,
             v: np.ndarray, f: np.ndarray, dt: float):
    """Write into out[i] the RK4 iterate steps[i] steps on from x0 of
    x' = f - H x, where H = V diag(lam) V^T; x0 and the rows of out are
    states flattened agent-major."""
    n, m = f.shape
    z = -dt * lam
    p = 1.0 + z / 2.0 + z * z / 6.0 + z ** 3 / 24.0
    zp = z * p  # r - 1 without the cancellation
    log_r = np.log1p(zp)
    moving = zp != 0.0
    gain = dt * p / np.where(moving, zp, 1.0)
    y0 = v.T @ x0.reshape(n, m)
    g = v.T @ f
    steps = np.asarray(steps, dtype=float)
    rows = max(1, _CELLS // (n * m))
    for i in range(0, len(steps), rows):
        j = steps[i : i + rows, None]
        e = j * log_r
        c = np.where(moving, gain * np.expm1(e), j * dt)
        y = np.exp(e)[:, :, None] * y0 + c[:, :, None] * g
        out[i : i + len(j)] = (v @ y).reshape(len(j), n * m)


def simulate(s: Scenario) -> Trajectory:
    """Integrate the scenario and record state, active topology, and the
    containment certificate at every grid time.

    Each switching segment is evaluated in closed form from the cached
    spectrum of its topology at every one of its steps, starting from the
    previous segment's last row.
    """
    steps = s.step_count
    try:
        active = np.empty(steps + 1, dtype=int)
        states = np.empty((steps + 1, s.n * s.m))
    except (ValueError, MemoryError) as e:  # more rows than numpy allows, or than fit
        raise ValueError(f"t_final={s.t_final} at dt={s.dt} is {steps:.4g} steps, "
                         "too many to store as a trajectory") from e
    states[0] = s.x_init.ravel()
    for a, b, pid in s.segments:
        topo = s.topology(pid)
        _segment(states[a + 1 : b + 1], states[a], np.arange(1, b - a + 1),
                 *topo.spectrum, topo.link_weights @ s.leaders.positions, s.dt)
        active[a : b + 1] = pid
    times = s.t0 + s.dt * np.arange(steps + 1)
    sq = project_points(states.reshape(-1, s.m), s.leaders)
    dvals = sq.reshape(steps + 1, s.n).sum(axis=1)
    return Trajectory(
        times=times, states=states, topologies=active, d_xi=dvals, n=s.n, m=s.m
    )


def terminal_state(s: Scenario) -> np.ndarray:
    """The (n, m) state at t_final, equal to ``simulate(s).final_state``.

    Each switching segment is evaluated at its last step only, from the end
    of the previous one, so the cost grows with the number of segments and
    not with the number of steps.
    """
    x = s.x_init.ravel()
    for a, b, pid in s.segments:
        topo = s.topology(pid)
        end = np.empty((1, s.n * s.m))
        _segment(end, x, [b - a], *topo.spectrum, topo.link_weights @ s.leaders.positions,
                 s.dt)
        x = end[0]
    return x.reshape(s.n, s.m)


def equilibrium(t: Topology, leaders: LeaderSet):
    """Closed-form limit of the fixed-topology flow.

    Returns (w, x_star): w is the (n, k) weight matrix solving H w = B with
    B the per-leader link-weight columns, and x_star = w @ positions. When
    every component is leader-connected, w is row stochastic, so each agent's
    limit is a convex combination of leader positions. A topology with a
    leaderless component raises NotAllConnectedError from ``t.solve``. The
    solve never reads ``t.spectrum``.
    """
    if t.leaders.k != leaders.k:
        raise ValueError(f"topology links {t.leaders.k} leaders but {leaders.k} positions given")
    w = t.solve(t.link_weights)
    return w, w @ leaders.positions
