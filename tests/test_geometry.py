from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import projection_oracle

from containment.geometry import (
    LeaderSet,
    _subset_solvers,
    collinearity_residual,
    d_xi,
    in_hull,
    project,
    project_points,
)
from containment.sampling import random_projection_case, rng_for

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

    def test_rejects_too_many_leaders(self):
        with pytest.raises(ValueError):
            LeaderSet(np.zeros((13, 2)))

    def test_positions_read_only(self):
        with pytest.raises(ValueError):
            SEGMENT.positions[0, 0] = 9.0


class TestProject:
    def test_clamp_to_segment(self):
        p = project([5.0], SEGMENT)
        assert p.closest[0] == pytest.approx(2.0, abs=1e-12)
        assert p.sq_dist == pytest.approx(4.5, abs=1e-12)
        np.testing.assert_allclose(p.weights, [0.0, 1.0], atol=1e-9)

    def test_triangle_vertex(self):
        # enumerating the faces of the triangle puts the optimum at (1, 1)
        p = project([0.0, 0.0], TRIANGLE)
        np.testing.assert_allclose(p.closest, [1.0, 1.0], atol=1e-9)
        assert p.sq_dist == pytest.approx(1.0, abs=1e-9)

    def test_interior_point_is_fixed(self):
        x = np.array([1.3, 1.6])
        p = project(x, TRIANGLE)
        np.testing.assert_allclose(p.closest, x, atol=1e-9)
        assert p.sq_dist <= 1e-18

    def test_weights_are_convex_and_reconstruct(self):
        p = project([0.4, 2.9], TRIANGLE)
        assert p.weights.min() >= 0.0
        assert p.weights.sum() == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(
            p.weights @ TRIANGLE.positions, p.closest, atol=1e-9
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            project([1.0], TRIANGLE)

    def test_single_leader(self):
        one = LeaderSet(((2.0, 3.0),))
        p = project([0.0, 0.0], one)
        np.testing.assert_allclose(p.closest, [2.0, 3.0])
        assert p.sq_dist == pytest.approx(0.5 * 13.0)

    def test_coincident_leaders(self):
        dup = LeaderSet(((1.0,), (1.0,), (1.0,)))
        p = project([4.0], dup)
        assert p.closest[0] == pytest.approx(1.0, abs=1e-9)
        assert p.weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_collinear_leaders(self):
        line = LeaderSet(((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)))
        p = project([2.0, 0.0], line)
        np.testing.assert_allclose(p.closest, [1.0, 1.0], atol=1e-9)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_idempotent(self, seed):
        x, leaders = random_projection_case(rng_for(seed))
        p = project(x, leaders)
        assert project(p.closest, leaders).sq_dist <= 1e-12

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_contraction(self, seed):
        rng = rng_for(seed)
        x, leaders = random_projection_case(rng)
        y = rng.uniform(-5.0, 5.0, size=leaders.m)
        cx = project(x, leaders).closest
        cy = project(y, leaders).closest
        assert np.linalg.norm(cx - cy) <= np.linalg.norm(x - y) + 1e-9

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_variational_inequality(self, seed):
        x, leaders = random_projection_case(rng_for(seed))
        p = project(x, leaders)
        g = x - p.closest
        assert ((leaders.positions - p.closest) @ g).max() <= 1e-9

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_matches_subset_enumeration_oracle(self, seed):
        x, leaders = random_projection_case(rng_for(seed))
        _, want_sq = projection_oracle(x, leaders.positions)
        got = project(x, leaders).sq_dist
        assert abs(got - want_sq) <= 1e-8

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_sampled_hull_points_never_closer(self, seed):
        rng = rng_for(seed)
        x, leaders = random_projection_case(rng)
        got = project(x, leaders).sq_dist
        gammas = rng.dirichlet(np.ones(leaders.k), size=200)
        samples = gammas @ leaders.positions
        sampled_sq = 0.5 * ((samples - x) ** 2).sum(axis=1)
        assert sampled_sq.min() >= got - 1e-9


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
    p = project(x, leaders)  # raises if its optimality certificate fails
    assert abs(p.sq_dist - want_sq) <= 1e-8
    # interior weights are not unique: pin only that they are a convex
    # combination reproducing the closest point
    assert p.weights.min() >= 0.0
    assert abs(p.weights.sum() - 1.0) <= 1e-9
    np.testing.assert_allclose(
        p.weights @ leaders.positions, p.closest, rtol=0, atol=1e-9
    )


class TestSubsetBound:
    """At most m+1 leaders per subset (Caratheodory) must not change answers."""

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

    @pytest.mark.parametrize(
        "k,m,count",
        [(12, 3, 793), (4, 1, 10), (12, 1, 78), (1, 1, 1), (3, 2, 7), (4, 3, 15),
         (2, 3, 3)],
    )
    def test_subset_count(self, k, m, count):
        leaders = LeaderSet(rng_for(k, m).uniform(-1.0, 1.0, size=(k, m)))
        assert count == sum(comb(k, s) for s in range(1, min(k, m + 1) + 1))
        assert len(_subset_solvers(leaders)) == count

    @pytest.mark.parametrize("k,m", [(1, 1), (2, 1), (3, 2), (4, 3), (2, 3)])
    def test_unpruned_subsets_in_mask_order(self, k, m):
        leaders = LeaderSet(rng_for(k, m).uniform(-1.0, 1.0, size=(k, m)))
        masks = [int((1 << idx).sum()) for idx, _, _ in _subset_solvers(leaders)]
        assert masks == list(range(1, 2 ** k))


class TestDXi:
    def test_inside_is_zero(self):
        x = np.array([1.2, 1.5, 1.9])  # three agents inside [1, 2]
        assert d_xi(x, SEGMENT) <= 1e-18

    def test_single_agent_reduces_to_project(self):
        assert d_xi([5.0], SEGMENT) == pytest.approx(project([5.0], SEGMENT).sq_dist)

    def test_two_agent_sum(self):
        # clamp each agent: 0.5 * 3^2 + 0.5 * 3.5^2 = 4.5 + 6.125
        assert d_xi([5.0, 5.5], SEGMENT) == pytest.approx(10.625, abs=1e-12)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            d_xi([1.0, 2.0, 3.0], TRIANGLE)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        # a NaN agent once gave d_xi = inf and all-zero projection weights
        leaders = LeaderSet(((0.0,), (1.0,)))
        with pytest.raises(ValueError):
            d_xi([bad, 0.5], leaders)
        with pytest.raises(ValueError):
            project([bad], leaders)
        with pytest.raises(ValueError):
            project_points([[0.5], [bad]], leaders)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_zero_iff_every_agent_inside(self, seed):
        rng = rng_for(seed)
        _, leaders = random_projection_case(rng)
        pts = rng.uniform(-4.0, 4.0, size=(3, leaders.m))
        val = d_xi(pts.ravel(), leaders)
        inside = all(in_hull(p, leaders, 1e-9) for p in pts)
        # 3 agents each within 1e-9 of the hull bound d_xi by 3 * 0.5e-18
        assert (val <= 1.5e-18) == inside


class TestInHull:
    def test_midpoint(self):
        assert in_hull([1.5], SEGMENT, 1e-9)

    def test_vertex(self):
        assert in_hull([2.0], SEGMENT, 1e-9)

    def test_far_point(self):
        assert not in_hull([5.0], SEGMENT, 0.01)

    def test_tolerance_band(self):
        assert in_hull([2.05], SEGMENT, 0.1)
        assert not in_hull([2.2], SEGMENT, 0.1)

    def test_rejects_negative_tol(self):
        with pytest.raises(ValueError):
            in_hull([1.5], SEGMENT, -1.0)


class TestBatch:
    def test_matches_single(self):
        pts = np.array([[5.0], [1.5], [-3.0]])
        closest, weights, sq = project_points(pts, SEGMENT)
        for row in range(3):
            p = project(pts[row], SEGMENT)
            np.testing.assert_allclose(closest[row], p.closest, atol=1e-12)
            assert sq[row] == pytest.approx(p.sq_dist, abs=1e-12)
            np.testing.assert_allclose(weights[row], p.weights, atol=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            project_points(np.zeros((2, 3)), SEGMENT)


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
