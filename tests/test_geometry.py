import gc
import os
import subprocess
import sys
import weakref
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    polygon_distance,
    projection_batch_oracle,
    projection_oracle,
    random_projection_case,
)

import containment
from containment import geometry
from containment.builtin import example_two
from containment.dynamics import Scenario, SwitchingSchedule, simulate
from containment.geometry import (
    _HARVEST,
    HullProjector,
    LeaderSet,
    collinearity_residual,
    d_xi,
    project_points,
)
from containment.graph import AgentGraph, LeaderLinks, Topology
from containment.sampling import rng_for

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402

SEGMENT = LeaderSet(((1.0,), (2.0,)))
TRIANGLE = LeaderSet(((1.0, 1.0), (2.0, 2.0), (1.0, 2.0)))


class TestLeaderSet:
    def test_dimensions(self):
        assert SEGMENT.k == 2 and SEGMENT.m == 1
        assert TRIANGLE.k == 3 and TRIANGLE.m == 2

    def test_rejects_flat_input(self):
        with pytest.raises(ValueError):
            LeaderSet([1.0, 2.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            LeaderSet(((np.nan, 0.0),))

    def test_accepts_more_than_twelve_leaders(self):
        leaders = LeaderSet(np.arange(26.0).reshape(13, 2))
        assert leaders.k == 13
        assert project_points([[0.0, 0.0]], leaders)[0] == pytest.approx(0.5, abs=1e-12)

    def test_collected_after_last_reference(self):
        leaders = LeaderSet(rng_for(1).uniform(-1.0, 1.0, size=(5, 2)))
        project_points(rng_for(2).uniform(-2.0, 2.0, size=(50, 2)), leaders)
        ref = weakref.ref(leaders)
        del leaders
        gc.collect()
        assert ref() is None

    def test_positions_read_only(self):
        with pytest.raises(ValueError):
            SEGMENT.positions[0, 0] = 9.0


def sq_dist(x, leaders):
    """Half squared distance of the single point x to the hull."""
    return project_points(np.asarray(x, dtype=float)[None], leaders)[0]


class TestProject:
    def test_clamp_to_segment(self):
        assert sq_dist([5.0], SEGMENT) == pytest.approx(4.5, abs=1e-12)

    def test_triangle_vertex(self):
        # enumerating the faces of the triangle puts the optimum at (1, 1)
        assert sq_dist([0.0, 0.0], TRIANGLE) == pytest.approx(1.0, abs=1e-9)

    def test_interior_point_is_fixed(self):
        assert sq_dist([1.3, 1.6], TRIANGLE) <= 1e-18

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sq_dist([1.0], TRIANGLE)

    def test_single_leader(self):
        one = LeaderSet(((2.0, 3.0),))
        assert sq_dist([0.0, 0.0], one) == pytest.approx(0.5 * 13.0)

    def test_coincident_leaders(self):
        dup = LeaderSet(((1.0,), (1.0,), (1.0,)))
        assert sq_dist([4.0], dup) == pytest.approx(4.5, abs=1e-9)

    def test_collinear_leaders(self):
        # the closest point is (1, 1)
        line = LeaderSet(((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)))
        assert sq_dist([2.0, 0.0], line) == pytest.approx(1.0, abs=1e-9)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_idempotent(self, seed):
        x, leaders = random_projection_case(rng_for(seed))
        closest, _ = projection_oracle(x, leaders.positions)
        assert sq_dist(closest, leaders) <= 1e-12

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_contraction(self, seed):
        # the distance to a convex set is 1-Lipschitz
        rng = rng_for(seed)
        x, leaders = random_projection_case(rng)
        y = rng.uniform(-5.0, 5.0, size=leaders.m)
        dx = np.sqrt(2.0 * sq_dist(x, leaders))
        dy = np.sqrt(2.0 * sq_dist(y, leaders))
        assert abs(dx - dy) <= np.linalg.norm(x - y) + 1e-9

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_matches_subset_enumeration_oracle(self, seed):
        x, leaders = random_projection_case(rng_for(seed))
        _, want_sq = projection_oracle(x, leaders.positions)
        assert abs(sq_dist(x, leaders) - want_sq) <= 1e-8

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_sampled_hull_points_never_closer(self, seed):
        rng = rng_for(seed)
        x, leaders = random_projection_case(rng)
        got = sq_dist(x, leaders)
        gammas = rng.dirichlet(np.ones(leaders.k), size=200)
        samples = gammas @ leaders.positions
        sampled_sq = 0.5 * ((samples - x) ** 2).sum(axis=1)
        assert sampled_sq.min() >= got - 1e-9

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_translation_and_scaling(self, seed):
        # moving points and leaders together by up to 1e3 keeps every
        # distance; scaling both by c multiplies it by c^2
        rng = rng_for(seed)
        _, leaders = random_projection_case(rng, k_max=12)
        pts = rng.uniform(-5.0, 5.0, size=(64, leaders.m))
        base = project_points(pts, leaders)
        shift = rng.uniform(-1e3, 1e3, size=leaders.m)
        for c, b in [(1.0, shift), (1e-6, 0.0), (1e-3, 0.0), (7.0, 0.0), (1e4, 0.0)]:
            moved, pos = c * pts + b, c * leaders.positions + b
            s = max(np.abs(moved).max(), np.abs(pos).max())
            got = project_points(moved, LeaderSet(pos))
            assert np.abs(got - c * c * base).max() <= 1e-14 * s * s


def degenerate_leaders(family, k, m, rng):
    """k >= m+2 leaders in R^m with a duplicated vertex, three collinear
    vertices, or (m = 3) every vertex in one plane."""
    pos = rng.uniform(-3.0, 3.0, size=(k, m))
    if family == "duplicate":
        pos[-1] = pos[0]
    elif family == "collinear":
        pos[2] = pos[0] + rng.uniform(0.0, 1.0) * (pos[1] - pos[0])
    else:
        pos[:, 2] = pos[:, :2] @ rng.uniform(-1.0, 1.0, size=2) + 0.5
    return LeaderSet(pos)


def assert_matches_oracle(x, leaders):
    _, want_sq = projection_oracle(x, leaders.positions)
    assert abs(sq_dist(x, leaders) - want_sq) <= 1e-8


class TestSubsetBound:
    """Supports of at most m+1 leaders (Caratheodory), accepted by their
    optimality certificate, must give the answers of subset enumeration."""

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle_up_to_twelve_leaders(self, seed):
        x, leaders = random_projection_case(rng_for(seed), k_max=12)
        assert_matches_oracle(x, leaders)

    @pytest.mark.parametrize(
        "family,m",
        [("duplicate", 1), ("duplicate", 2), ("duplicate", 3),
         ("collinear", 2), ("collinear", 3), ("planar", 3)],
    )
    @pytest.mark.parametrize("k_extra", [1, 5])
    def test_degenerate_families_match_oracle(self, family, m, k_extra):
        rng = rng_for(7, k_extra)
        leaders = degenerate_leaders(family, m + 1 + k_extra, m, rng)
        inside = rng.dirichlet(np.ones(leaders.k)) @ leaders.positions
        for x in [inside, *rng.uniform(-5.0, 5.0, size=(4, m))]:
            assert_matches_oracle(x, leaders)
        batch = np.vstack([rng.uniform(-5.0, 5.0, size=(200, m)),
                           rng.dirichlet(np.ones(leaders.k), size=50) @ leaders.positions])
        assert_batch_matches_oracle(batch, leaders)

    @pytest.mark.parametrize(
        "k,m,count",
        [(12, 3, 793), (4, 1, 10), (12, 1, 78), (1, 1, 1), (3, 2, 7), (4, 3, 15),
         (2, 3, 3)],
    )
    def test_subset_count(self, k, m, count):
        # Wolfe's supports stay affinely independent, so the projector never
        # needs more pseudo-inverses than there are subsets of <= m+1 leaders
        leaders = LeaderSet(rng_for(k, m).uniform(-1.0, 1.0, size=(k, m)))
        assert count == sum(comb(k, s) for s in range(1, min(k, m + 1) + 1))
        pts = rng_for(k, m + 100).uniform(-2.0, 2.0, size=(400, m))
        project_points(pts, leaders)
        sizes = (leaders.projector._index < k).sum(axis=1)
        assert len(sizes) <= count
        assert (sizes <= min(k, m + 1)).all()

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_batch_matches_oracle_beyond_twelve_leaders(self, seed):
        rng = rng_for(seed)
        m = int(rng.integers(2, 4))
        k = int(rng.integers(13, 25 if m == 2 else 17))
        leaders = LeaderSet(rng.uniform(-3.0, 3.0, size=(k, m)))
        pts = rng.uniform(-5.0, 5.0, size=(100, m))
        assert_batch_matches_oracle(pts, leaders)


def assert_batch_matches_oracle(pts, leaders):
    scale = max(1.0, float(np.abs(pts).max()), float(np.abs(leaders.positions).max()))
    want = projection_batch_oracle(pts, leaders.positions)
    got = project_points(pts, leaders)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale * scale)


def swarm_points(seed):
    """Agent positions along the first large-swarm benchmark instance's
    trajectory for ``seed``, one per row, and its leaders."""
    inst = workloads.build("large-swarm", seed, None).round[0]
    n, m = workloads.SWARM_N, workloads.SWARM_M
    leaders = LeaderSet(inst["leaders"])
    topo = Topology(AgentGraph(n, inst["edges"]),
                    LeaderLinks(n, workloads.SWARM_K, inst["links"]))
    s = Scenario(m=m, x_init=inst["x_init"], leaders=leaders, topologies=((1, topo),),
                 schedule=SwitchingSchedule(((0.0, 1),)), dt=inst["dt"],
                 t_final=workloads.SWARM_STEPS * inst["dt"])
    return simulate(s).states.reshape(-1, m), leaders


def batch_case(case):
    """Points and leaders: example 2's trajectory, a large-swarm trajectory
    (``swarm<seed>``, seed 3 for ``swarm``), or 3 000 uniform points around
    a random hull of ``hull<k>`` leaders, in 2-D for k = 7 and 3-D
    otherwise."""
    if case == "example2":
        s = example_two()
        return simulate(s).states.reshape(-1, 2), s.leaders
    if case.startswith("swarm"):
        return swarm_points(int(case[5:] or 3))
    k = int(case[4:])
    m = 2 if k == 7 else 3
    rng = rng_for(k, m)
    leaders = LeaderSet(rng.uniform(-3.0, 3.0, size=(k, m)))
    return rng.uniform(-4.0, 4.0, size=(3000, m)), leaders


class TestExactZero:
    """A point inside a simplex of m + 1 affinely independent leaders, whose
    fit has no negative weight, is at distance exactly 0, from every stage."""

    @staticmethod
    def wolfe_batches(monkeypatch):
        calls = []
        wolfe = HullProjector.wolfe
        monkeypatch.setattr(HullProjector, "wolfe",
                            lambda self, pt: calls.append(pt.shape[1]) or wolfe(self, pt))
        return calls

    def test_harvest_only_batch(self, monkeypatch):
        calls = self.wolfe_batches(monkeypatch)
        pts = rng_for(30).dirichlet(np.ones(3), size=20) @ TRIANGLE.positions
        got = project_points(pts, LeaderSet(TRIANGLE.positions))
        assert calls == [20]
        assert got.tolist() == [0.0] * 20

    def test_candidate_stage(self, monkeypatch):
        # every row but the harvested ones is resolved by the harvest's support
        calls = self.wolfe_batches(monkeypatch)
        pts = rng_for(31).dirichlet(np.ones(3), size=_HARVEST + 1) @ TRIANGLE.positions
        got = project_points(pts, LeaderSet(TRIANGLE.positions))
        assert calls == [_HARVEST]
        assert got.tolist() == [0.0] * (_HARVEST + 1)

    def test_point_wolfe_finishes(self, monkeypatch):
        # in the unit square, the harvested point lies only in triangles on
        # corner (1, 0), the last one only in triangles on corner (0, 1): no
        # harvested support holds it, so Wolfe finishes it
        calls = self.wolfe_batches(monkeypatch)
        pts = np.array([[0.8, 0.1]] * _HARVEST + [[0.2, 0.9]])
        got = project_points(pts, LeaderSet(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))))
        assert calls == [_HARVEST, 1]
        assert got.tolist() == [0.0] * (_HARVEST + 1)

    @pytest.mark.parametrize("c", [1e-160, 1e150])
    def test_tiny_and_huge_hulls(self, c):
        # the flag's condition estimate takes no square of the edges or of
        # the pseudo-inverse, whose entries are about 1/c: it cannot overflow
        pts = c * np.array([[1.3, 1.6], [0.0, 0.0], [1.2, 1.9]])
        got = project_points(pts, LeaderSet(c * TRIANGLE.positions))
        assert got[[0, 2]].tolist() == [0.0, 0.0]
        assert got[1] == pytest.approx(c * c)

    @pytest.mark.parametrize("leaders,x,want", [
        # 4 coplanar leaders in 3-D; x is 0.5 above the plane z = 0
        ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]],
         [0.4, 0.4, 0.5], 0.125),
        # 3 collinear leaders in 2-D; x is 1 off their line y = 0
        ([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]], [0.5, 1.0], 0.5),
    ], ids=["coplanar", "collinear"])
    def test_dependent_support_is_not_full_rank(self, leaders, x, want):
        # the fit on the dependent support is a least-squares one: its
        # weights are >= 0 at the off-span x, which is not in the hull
        proj = HullProjector(np.array(leaders))
        rows, _, _ = proj._rows(np.ones((len(leaders), 1), dtype=bool))
        assert not proj._full[rows].any()
        sq = np.full(1, np.nan)
        assert proj._accept(rows[0], np.array(x)[:, None], np.arange(1), sq).size == 0
        assert sq[0] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("m", [2, 3])
    def test_near_degenerate_simplex_is_not_full_rank(self, m):
        # the last leader is 1e-9 off the facet of the others: cond ~ 1e9
        rng = rng_for(32, m)
        base = np.vstack([np.zeros(m - 1), np.eye(m - 1)])
        top = np.append(rng.dirichlet(np.ones(m)) @ base, 1e-9)
        leaders = LeaderSet(np.vstack([np.column_stack([base, np.zeros(m)]), top]))
        proj = leaders.projector
        rows, _, _ = proj._rows(np.ones((m + 1, 1), dtype=bool))
        assert not proj._full[rows].any()
        inside = rng.dirichlet(np.ones(m + 1), size=50) @ leaders.positions
        outside = inside + np.append(np.zeros(m - 1), 1e-6)
        got = project_points(np.vstack([inside, outside]), leaders)
        assert got[50:].min() > 0.0
        assert_batch_matches_oracle(np.vstack([inside, outside]), leaders)

    @pytest.mark.parametrize("case", ["example2", "swarm1", "swarm2", "swarm3", "swarm4",
                                      "swarm5", "hull7", "hull12", "hull30"])
    def test_only_interior_noise_moves(self, case, monkeypatch):
        # with no support flagged, every distance is the certificate stage's;
        # the flag may turn only interior rounding noise into 0
        pts, leaders = batch_case(case)
        got = project_points(pts, LeaderSet(leaders.positions))
        monkeypatch.setattr(geometry, "_COND", 0.0)
        want = project_points(pts, LeaderSet(leaders.positions))
        moved = got != want
        assert (got[moved] == 0.0).all()
        assert want[moved].max(initial=0.0) <= 1e-28
        assert (got == 0.0).sum() > 0


class TestProjector:
    def test_swarm_trajectory_matches_batch_oracle(self):
        pts, leaders = swarm_points(3)
        assert_batch_matches_oracle(pts, leaders)

    def test_example_two_trajectory_matches_batch_oracle(self):
        s = example_two()
        assert_batch_matches_oracle(simulate(s).states.reshape(-1, 2), s.leaders)

    @pytest.mark.parametrize("m", [2, 3])
    def test_points_just_outside_a_facet(self, m):
        # 1e-7 outside the facet opposite vertex 0 of a simplex, where the
        # certificate tolerance (~1e-13) is far above the sq_dist (5e-15)
        rng = rng_for(11, m)
        simplex = rng.uniform(-2.0, 2.0, size=(m + 1, m))
        leaders = LeaderSet(np.vstack([simplex, simplex.mean(axis=0)]))
        facet = simplex[1:]
        normal = np.linalg.svd(facet[1:] - facet[0])[2][-1]
        if normal @ (facet[0] - simplex[0]) < 0.0:
            normal = -normal
        feet = rng.dirichlet(np.ones(m), size=64) @ facet
        pts = np.vstack([feet + 1e-7 * normal, feet - 1e-7 * normal])
        got = project_points(pts, leaders)
        np.testing.assert_allclose(got[:64], 0.5e-14, rtol=1e-6)
        assert got[64:].max() <= 1e-24
        assert_batch_matches_oracle(pts, leaders)

    def test_interval_clip(self):
        leaders = LeaderSet([[1.0], [3.0], [3.0], [2.0], [1.0]])
        pts = np.array([[0.0], [1.0], [3.0], [2.5], [5.0], [3.0 + 1e-7], [1.0 - 1e-9],
                        [-7.0], [2.0]])
        got = project_points(pts, leaders)
        want = 0.5 * (pts[:, 0] - np.clip(pts[:, 0], 1.0, 3.0)) ** 2
        assert (got == want).all()
        assert got[[1, 2, 3, 8]].tolist() == [0.0] * 4
        assert_batch_matches_oracle(pts, leaders)
        for x, sq in zip(pts, got):
            assert sq_dist(x, leaders) == pytest.approx(sq, rel=1e-9, abs=1e-30)

    @pytest.mark.parametrize("k,count", [(40, 2000), (1000, 500)])
    def test_regular_polygon_matches_polygon_distance(self, k, count):
        # the 1000-gon's edges are 6e-3 long; a fit through such a short
        # support's Gram matrix, which squares the edge matrix's condition
        # number, loses about 1e-12 here
        angles = 2.0 * np.pi * np.arange(k) / k
        polygon = np.column_stack([np.cos(angles), np.sin(angles)])
        pts = rng_for(k).uniform(-2.0, 2.0, size=(count, 2))
        want = 0.5 * polygon_distance(pts, polygon) ** 2
        got = project_points(pts, LeaderSet(polygon))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    def test_small_hull_far_from_origin(self):
        # a triangle 1e-6 across, 5 away from the origin: in absolute
        # coordinates the certificate's rounding (~1e-15) would exceed the
        # distances it has to rank (~1e-13)
        angles = 2.0 * np.pi * np.arange(3) / 3
        triangle = 5.0 + 1e-6 * np.column_stack([np.cos(angles), np.sin(angles)])
        pts = 5.0 + rng_for(12).uniform(-2e-6, 2e-6, size=(300, 2))
        want = 0.5 * polygon_distance(pts, triangle) ** 2
        leaders = LeaderSet(triangle)
        np.testing.assert_allclose(project_points(pts, leaders), want, rtol=1e-6, atol=1e-26)
        for x, sq in zip(pts[:20], want):
            assert sq_dist(x, leaders) == pytest.approx(sq, rel=1e-6, abs=1e-26)

    def test_unresolved_points_go_to_wolfe(self, monkeypatch):
        # a batch one row over the harvest budget: the harvest takes every row
        # but the last and finds only the interior support, so the last
        # point, in another region of the plane, is left for Wolfe
        calls = []
        wolfe = HullProjector.wolfe
        monkeypatch.setattr(HullProjector, "wolfe",
                            lambda self, pt: calls.append(pt.shape[1]) or wolfe(self, pt))
        pts = np.array([[1.3, 1.6]] * _HARVEST + [[5.0, -4.0]])
        got = project_points(pts, LeaderSet(TRIANGLE.positions))
        assert calls == [_HARVEST, 1]
        assert got[:-1].max() <= 1e-24
        assert got[-1] == pytest.approx(sq_dist(pts[-1], TRIANGLE), rel=1e-12)
        assert_batch_matches_oracle(pts, TRIANGLE)

    def test_pseudo_inverse_built_once_per_support(self, monkeypatch):
        # a stacked call builds one matrix per entry of its leading dimension
        built = []
        pinv = np.linalg.pinv
        monkeypatch.setattr(np.linalg, "pinv",
                            lambda a: built.append(a.shape[0] if a.ndim == 3 else 1) or pinv(a))
        leaders = LeaderSet(rng_for(5).uniform(-1.0, 1.0, size=(12, 3)))
        pts = rng_for(6).uniform(-3.0, 3.0, size=(500, 3))
        first = project_points(pts, leaders)
        assert sum(built) == len(leaders.projector._index) > 0
        calls = len(built)
        assert (project_points(pts, leaders) == first).all()
        assert len(built) == calls

    def test_stacked_pseudo_inverses_match_single_builds(self):
        leaders = LeaderSet(rng_for(8).uniform(-1.0, 1.0, size=(12, 3)))
        proj = leaders.projector
        project_points(rng_for(9).uniform(-3.0, 3.0, size=(500, 3)), leaders)
        for row, index in enumerate(proj._index.tolist()):
            support = [v for v in index if v < 12]
            vs = proj.vertices[support]
            single = np.linalg.pinv((vs[1:] - vs[0]).T)
            assert (proj._einv[row, :len(support) - 1] == single).all()
            assert not proj._einv[row, len(support) - 1:].any()
            assert proj._index[row].tolist() == [*support] + [12] * (4 - len(support))

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_batches_around_the_harvest_budget(self, extra):
        # within the budget the whole batch is harvested; one row over it,
        # the candidate stage runs on the rest
        rng = rng_for(10, extra + 1)
        leaders = LeaderSet(rng.uniform(-1.0, 1.0, size=(9, 3)))
        assert_batch_matches_oracle(rng.uniform(-3.0, 3.0, size=(_HARVEST + extra, 3)), leaders)

    def test_harvest_reaches_every_swarm_agent(self, monkeypatch):
        # rows are sample-major, 96 agents per sample; a stride of 16 would
        # harvest agents 1, 17, ..., 81 only
        pts, leaders = swarm_points(3)
        row_of = {x.tobytes(): i for i, x in enumerate(pts)}
        harvested = []
        wolfe = HullProjector.wolfe
        monkeypatch.setattr(HullProjector, "wolfe", lambda self, pt: harvested.append(
            [row_of[(x + self.origin).tobytes()] for x in pt.T]) or wolfe(self, pt))
        project_points(pts, leaders)
        assert {row % workloads.SWARM_N for row in harvested[0]} == set(range(workloads.SWARM_N))


    @pytest.mark.parametrize("case", ["example2", "swarm", "swarm5", "hull7", "hull12",
                                      "hull30"])
    def test_distance_does_not_depend_on_its_batch(self, case):
        # every returned distance comes from one elementwise fit kernel; fits
        # through BLAS gave about half of example 2's rows and a quarter of
        # the swarm's other last bits alone than in the full batch. Inside a
        # hull of more than m + 1 leaders, the simplex that resolves a point
        # may differ alone and in a batch: without the exact zero, 350, 55
        # and 406 of 3 000 points around these 7-, 12- and 30-leader hulls,
        # and 30 of 3 000 swarm5 rows, kept rounding noise that differed
        pts, leaders = batch_case(case)
        batch = project_points(pts, leaders)
        rows = rng_for(24).choice(len(pts), size=400, replace=False)
        alone = np.array([project_points(pts[[r]], LeaderSet(leaders.positions))[0]
                          for r in rows])
        assert (alone == batch[rows]).all(), rows[alone != batch[rows]]


class TestDXi:
    def test_inside_is_zero(self):
        x = np.array([1.2, 1.5, 1.9])  # three agents inside [1, 2]
        assert d_xi(x, SEGMENT) <= 1e-18

    def test_single_agent_reduces_to_project(self):
        assert d_xi([5.0], SEGMENT) == pytest.approx(sq_dist([5.0], SEGMENT))

    def test_two_agent_sum(self):
        # clamp each agent: 0.5 * 3^2 + 0.5 * 3.5^2 = 4.5 + 6.125
        assert d_xi([5.0, 5.5], SEGMENT) == pytest.approx(10.625, abs=1e-12)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError, match="state length 3 is not a multiple of m=2"):
            d_xi([1.0, 2.0, 3.0], TRIANGLE)

    @pytest.mark.parametrize("leaders", [SEGMENT, TRIANGLE], ids=["m1", "m2"])
    def test_empty_state_is_zero(self, leaders):
        # the sum over no agents, as project_points returns [] for an empty batch
        assert d_xi([], leaders) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        # a NaN agent once gave d_xi = inf and all-zero projection weights
        leaders = LeaderSet(((0.0,), (1.0,)))
        with pytest.raises(ValueError):
            d_xi([bad, 0.5], leaders)
        with pytest.raises(ValueError):
            project_points([[0.5], [bad]], leaders)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_zero_iff_every_agent_inside(self, seed):
        rng = rng_for(seed)
        _, leaders = random_projection_case(rng)
        pts = rng.uniform(-4.0, 4.0, size=(3, leaders.m))
        val = d_xi(pts.ravel(), leaders)
        inside = all(sq_dist(p, leaders) <= 0.5e-18 for p in pts)
        # 3 agents each within 1e-9 of the hull bound d_xi by 3 * 0.5e-18
        assert (val <= 1.5e-18) == inside


class TestBatch:
    def test_matches_single(self):
        for leaders, pts in [
            (SEGMENT, [[5.0], [1.5], [-3.0]]),
            (TRIANGLE, [[0.0, 0.0], [1.3, 1.6], [0.4, 2.9], [3.0, 1.0], [1.5, 1.5]]),
        ]:
            sq = project_points(pts, leaders)
            assert sq.shape == (len(pts),)
            for x, got in zip(pts, sq):
                assert got == pytest.approx(sq_dist(x, leaders), abs=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            project_points(np.zeros((2, 3)), SEGMENT)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_empty_batch(self, k, m):
        # for m >= 2 an empty batch once raised IndexError: the cache rows of
        # its (no) supports came out as floats
        leaders = LeaderSet(rng_for(k, m).uniform(-1.0, 1.0, size=(k, m)))
        assert project_points(np.zeros((0, m)), leaders).shape == (0,)

    def test_never_imports_numpy_ma(self):
        # numpy 2 imports numpy.ma on the first np.unique of a numeric array,
        # 1.16 MB under tracemalloc; a fresh interpreter sees the first one
        code = """if True:
            import sys
            from test_geometry import example_two, project_points, simulate, swarm_points
            assert "numpy.ma" not in sys.modules, "imported before projecting"
            project_points(*swarm_points(3))
            s = example_two()
            project_points(simulate(s).states.reshape(-1, 2), s.leaders)
            assert "numpy.ma" not in sys.modules, "imported by projecting"
        """
        src = str(Path(containment.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120,
                       cwd=Path(__file__).parent)


class TestCollinearityResidual:
    def test_collinear_points(self):
        pts = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]
        assert collinearity_residual(pts) <= 1e-12

    def test_coincident_points(self):
        assert collinearity_residual([[1.0, 2.0]] * 4) == 0.0

    def test_off_line_point(self):
        pts = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 1.0]]
        assert collinearity_residual(pts) > 0.5

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            collinearity_residual([[1.0, 2.0]])
